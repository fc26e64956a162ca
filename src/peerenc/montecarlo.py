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
from .design import Design, batch_size, draw_validated
from .errors import InvalidConfig
from .estimands import ditt, et, member_averages, pitt
from .estimators import ESTIMATOR_NAMES, ET_ZERO_TOL, estimator_battery

# The (R, 7) float64 values of one run stay within 1 GiB.
MAX_REPLICATIONS = 1 << 24


def check_replications(replications: int, optional: bool = False,
                       where: str = "replications") -> None:
    """InvalidConfig unless 2 <= replications <= MAX_REPLICATIONS, or
    replications is 0 (no Monte Carlo) when the run is ``optional``."""
    if not (2 <= replications <= MAX_REPLICATIONS or optional and replications == 0):
        low = "0 or 2" if optional else "2"
        raise InvalidConfig(f"{where}: expected {low}..{MAX_REPLICATIONS}, got {replications}")


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


def exact_targets(design: Design) -> dict[str, float]:
    """Exact values each estimator is aiming at, from the exact engine."""
    pop = design.pop
    a, b = member_averages(pop, design.mech_a), member_averages(pop, design.mech_b)
    ditt_a, ditt_b = ditt(a).population, ditt(b).population
    pitt_1, pitt_0 = pitt(a, b, 1).population, pitt(a, b, 0).population
    uptake = et(pop).population
    targets = {
        "ditt_hat_a": ditt_a,
        "ditt_hat_b": ditt_b,
        "pitt_hat_1": pitt_1,
        "pitt_hat_0": pitt_0,
        "et_hat": uptake,
    }
    if uptake != 0.0:
        targets["ldt_hat"] = ditt_a / uptake
        targets["lpt_diff_hat"] = (pitt_1 - pitt_0) / uptake
    return targets


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


def replicate(design: Design, replications: int,
              targets: dict[str, float] | None = None) -> McSummary:
    """Run the design ``replications`` times and summarize every estimator
    against its target in ``targets``, by default ``exact_targets``.
    Deterministic given the design."""
    values = replicate_values(design, replications)
    if targets is None:
        targets = exact_targets(design)
    return McSummary(replications=replications, seed=design.seed, estimators=tuple(
        _summarize_column(name, values[:, idx], targets.get(name))
        for idx, name in enumerate(ESTIMATOR_NAMES)
    ))
