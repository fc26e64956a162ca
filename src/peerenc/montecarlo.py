"""Replication engine: ``replicate`` is the one Monte Carlo summary, of the
estimators on the replicates its design draws against their targets.

Each replicate draws its randomness from one stream addressed by the
replicate index, so its values do not depend on which replicates ran before it;
results are reduced in replicate-index order. Replicates where a ratio
estimator is undefined (e.g. the uptake estimate is zero, or every block
lost one encouragement arm) are counted and excluded from the moments
rather than aborting the batch.
"""

from __future__ import annotations

import math

import numpy as np

from ._report import JsonReport, Record
from .design import Design, draw_validated
from .errors import InvalidConfig
from .estimators import ESTIMATOR_NAMES, ET_ZERO_TOL, estimator_battery
from .population import Population

# The (R, 7) float64 values of one run stay within 1 GiB.
MAX_REPLICATIONS = 1 << 24
# Replicates are drawn in batches whose (replicate, individual) arrays take at
# most 2 MiB, at a peak of 160 bytes per (replicate, individual) pair, drawing
# and estimating included: at most this many pairs per batch.
BATCH_DRAWS = (2 << 20) // 160


def check_replications(replications: int, optional: bool = False,
                       where: str = "replications") -> None:
    """InvalidConfig unless 2 <= replications <= MAX_REPLICATIONS, or
    replications is 0 (no Monte Carlo) when the run is ``optional``."""
    if not (2 <= replications <= MAX_REPLICATIONS or optional and replications == 0):
        low = "0 or 2" if optional else "2"
        raise InvalidConfig(f"{where}: expected {low}..{MAX_REPLICATIONS}, got {replications}")


def batch_size(pop: Population) -> int:
    """Replicates per batch (one ``draw_validated`` call): BATCH_DRAWS
    (replicate, individual) pairs, and one replicate at least."""
    return max(1, BATCH_DRAWS // pop.n_individuals)


def replicate_values(design: Design, replications: int, first_replicate: int = 0) -> np.ndarray:
    """Raw estimator values, one row per replicate in index order, drawn and
    estimated in batches of ``batch_size(design.pop)``.

    Row r of a run starting at ``first_replicate`` f is identical to row
    f + r of a run starting at 0: a replicate's stream depends only on its
    absolute index, so split runs pool exactly.
    """
    check_replications(replications)
    out = np.empty((replications, len(ESTIMATOR_NAMES)))
    step = batch_size(design.pop)
    for lo in range(0, replications, step):
        count = min(step, replications - lo)
        values = estimator_battery(draw_validated(design, first_replicate + lo, count))
        out[lo:lo + count] = np.stack([values[name] for name in ESTIMATOR_NAMES], axis=-1)
    return out


class EstimatorSummary(Record):
    name: str
    mean: float
    sd: float
    mcse: float
    target: float | None
    std_bias: float | None
    n_defined: int
    n_undefined: int


class McSummary(JsonReport):
    replications: int
    seed: int
    estimators: tuple[EstimatorSummary, ...]

    def get(self, name: str) -> EstimatorSummary:
        for s in self.estimators:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_text(self) -> str:
        header = f"{'estimator':<14}{'mean':>14}{'sd':>12}{'mcse':>12}{'target':>14}{'std_bias':>10}{'undef':>7}"
        lines = [header, "-" * len(header)]
        for s in self.estimators:
            target = f"{s.target:>14.6g}" if s.target is not None else f"{'-':>14}"
            bias = f"{s.std_bias:>10.3g}" if s.std_bias is not None else f"{'-':>10}"
            lines.append(
                f"{s.name:<14}{s.mean:>14.6g}{s.sd:>12.4g}{s.mcse:>12.4g}{target}{bias}{s.n_undefined:>7}"
            )
        return "\n".join(lines)


def _moments(x: np.ndarray) -> tuple[float, float]:
    """Mean and sample sd (0 for one value) of finite values. Where their
    sums overflow, both are taken over x divided by its largest magnitude and
    scaled back, so finite values never read as an infinite mean."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(x))
        sd = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    if math.isfinite(mean) and math.isfinite(sd):
        return mean, sd
    scale = float(np.max(np.abs(x)))
    mean, sd = _moments(x / scale)
    return mean * scale, sd * scale


def _summarize_column(name: str, col: np.ndarray, target: float | None) -> EstimatorSummary:
    defined = col[np.isfinite(col)]
    n_def = defined.size
    n_undef = col.size - n_def
    if n_def == 0:
        return EstimatorSummary(name, float("nan"), float("nan"), float("nan"),
                                target, None, 0, n_undef)
    mean, sd = _moments(defined)
    mcse = sd / math.sqrt(n_def)
    std_bias = None
    if target is not None:
        gap = abs(mean - target)
        if mcse > 0:
            std_bias = gap / mcse
        else:
            std_bias = 0.0 if gap <= ET_ZERO_TOL else float("inf")
    return EstimatorSummary(name, mean, sd, mcse, target, std_bias, n_def, n_undef)


def replicate(design: Design, replications: int, targets: dict[str, float]) -> McSummary:
    """Run the design ``replications`` times and summarize every estimator
    against its target in ``targets`` (none where a name is absent), such as
    ``estimands.exact_targets``. Deterministic given the design."""
    values = replicate_values(design, replications)
    return McSummary(replications=replications, seed=design.seed, estimators=tuple(
        _summarize_column(name, values[:, idx], targets.get(name))
        for idx, name in enumerate(ESTIMATOR_NAMES)
    ))
