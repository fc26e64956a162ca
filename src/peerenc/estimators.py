"""Sample estimators computed on realized experiment data.

Block outcome means are inverse-probability weighted with the *design's*
encouragement probabilities (fixed, never estimated from data), so they are
unbiased for the corresponding exact averages. The uptake effect is
estimated per block by a ratio of realized means, which can be undefined in
a finite sample; such blocks are excluded and reported, never imputed.
Plug-in ratio estimators divide intent-to-treat contrasts by the estimated
uptake effect.
"""

from __future__ import annotations

import numpy as np

from ._report import JsonReport, Record
from .design import ExperimentData
from .errors import AllBlocksUndefined

ET_ZERO_TOL = 1e-12
# Every estimator's name, in the order ``_estimates`` returns them.
ESTIMATOR_NAMES = ("ditt_hat_a", "ditt_hat_b", "pitt_hat_1", "pitt_hat_0", "et_hat", "ldt_hat",
                   "lpt_diff_hat")


class _BlockStats(Record, eq=False):
    uptake: np.ndarray  # (..., B) ratio-of-means uptake contrast, NaN where undefined
    missing: np.ndarray  # (..., B) the encouragement value a block never realized, else -1
    arm_means: np.ndarray  # (2, 2, ...) arm A's and arm B's mean block means at z=0 and z=1


def _block_stats(data: ExperimentData) -> _BlockStats:
    """Every per-block quantity the estimators need, in one reduceat pass,
    for one realization or for each replicate of a batch (a leading axis).

    The inverse-probability denominator is the block size times each unit's
    design probability of showing the requested encouragement; a block with
    no such units has an empty numerator and correctly contributes zero.
    Each arm's block means are gathered in ascending block order, so every
    arm mean of a batch sums exactly as that replicate's own would.
    """
    z1 = data.z == 1
    z0 = data.z == 0
    y, p = data.y, data.p_enc
    sums = np.add.reduceat(
        np.stack([y * z0 / (1.0 - p), y * z1 / p, z0, z1, data.d * z0, data.d * z1]),
        data.starts[:-1], axis=-1,
    )
    ipw, count, treated = sums[:2], sums[2:4], sums[4:]
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = treated / count
    missing = np.where(count[1] == 0, 1, np.where(count[0] == 0, 0, -1))
    order = np.argsort(data.s != 1, axis=-1, kind="stable")
    by_arm = np.take_along_axis(ipw / data.sizes, order[None], axis=-1)
    return _BlockStats(
        uptake=rates[1] - rates[0],  # NaN where an arm is missing: its rate is 0/0
        missing=missing,
        arm_means=np.stack([by_arm[..., :data.k].mean(-1), by_arm[..., data.k:].mean(-1)]),
    )


def _estimates(stats: _BlockStats) -> dict[str, np.ndarray]:
    """Every estimator from the block statistics. The uptake estimate is the
    mean over the blocks where it is defined (summed as ``np.nanmean`` sums,
    NaN if none); a ratio estimator is NaN where the uptake is undefined or
    numerically zero, and a ratio beyond the float range is inf, which the
    Monte Carlo summary counts as undefined."""
    defined = stats.missing < 0
    (a0, a1), (b0, b1) = stats.arm_means
    da, p1, p0 = a1 - a0, a1 - b1, a0 - b0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uptake = np.where(defined, stats.uptake, 0.0).sum(axis=-1) / defined.sum(axis=-1)
        ratio_ok = np.abs(uptake) >= ET_ZERO_TOL  # False for NaN
        return {
            "ditt_hat_a": da,
            "ditt_hat_b": b1 - b0,
            "pitt_hat_1": p1,
            "pitt_hat_0": p0,
            "et_hat": uptake,
            "ldt_hat": np.where(ratio_ok, da / uptake, np.nan),
            "lpt_diff_hat": np.where(ratio_ok, (p1 - p0) / uptake, np.nan),
        }


def estimator_battery(data: ExperimentData) -> dict[str, np.ndarray]:
    """Every estimator on each replicate of a batch, as (R,) arrays (0-d on
    one realization; ``estimate_report`` is the entry that returns floats).
    Undefined ratio estimators come back as NaN so replication batches never
    abort."""
    return _estimates(_block_stats(data))


class EstimateReport(JsonReport):
    ditt_hat_a: float
    ditt_hat_b: float
    pitt_hat_1: float
    pitt_hat_0: float
    et_hat: float
    ldt_hat: float | None
    lpt_diff_hat: float | None
    arm_sizes: tuple[int, int]
    et_blocks_dropped: tuple[tuple[int, str], ...]
    notes: tuple[str, ...]

    def to_csv(self) -> str:
        rows = ["field,value"]
        for name in ESTIMATOR_NAMES:
            value = getattr(self, name)
            rows.append(f"{name},{'' if value is None else repr(value)}")
        rows.append(f"arm_size_a,{self.arm_sizes[0]}")
        rows.append(f"arm_size_b,{self.arm_sizes[1]}")
        for i, why in self.et_blocks_dropped:
            rows.append(f"et_dropped_block_{i},{why}")
        return "\n".join(rows) + "\n"


def estimate_report(data: ExperimentData) -> EstimateReport:
    """Every estimator on one realization, with exclusion diagnostics.

    The uptake-effect denominator pools all blocks with a defined contrast,
    across both arms (the exact uptake effect is mechanism-free, so both arms
    estimate the same quantity); the pooling is recorded in the notes. Blocks
    without a defined contrast are listed; if no block has one, this raises
    AllBlocksUndefined. A batch is a ValueError.
    """
    if data.s.ndim > 1:
        raise ValueError(f"estimate_report takes one realization, not a batch of {data.s.shape[0]}")
    stats = _block_stats(data)
    dropped = np.flatnonzero(stats.missing >= 0)
    if dropped.size == stats.uptake.size:
        raise AllBlocksUndefined("every block lacks one encouragement value")
    values = {name: float(v) for name, v in _estimates(stats).items()}
    notes = ["et_hat pools defined blocks from both mechanism arms"]
    if abs(values["et_hat"]) < ET_ZERO_TOL:
        values["ldt_hat"] = values["lpt_diff_hat"] = None
        notes.append("uptake estimate is zero; ratio estimators undefined")
    return EstimateReport(
        **values,
        arm_sizes=(data.k, data.n_blocks - data.k),
        et_blocks_dropped=tuple((i, f"no units with Z={m}")
                                for i, m in zip(dropped.tolist(), stats.missing[dropped].tolist())),
        notes=tuple(notes),
    )
