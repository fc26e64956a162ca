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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._report import JsonReport
from .design import ExperimentData
from .errors import AllBlocksUndefined, EmptyArm, ZeroEncouragementEffectEstimate

ET_ZERO_TOL = 1e-12


class _BlockStats(NamedTuple):
    means: np.ndarray  # (2, ..., B) inverse-probability block means at z=0 and z=1
    uptake: np.ndarray  # (..., B) ratio-of-means uptake contrast, NaN where undefined
    missing: np.ndarray  # (..., B) the encouragement value a block never realized, else -1
    by_arm: np.ndarray  # (2, ..., B) means with arm A's blocks first, each arm ascending
    k: int  # blocks in arm A


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
    means = ipw / data.sizes
    in_a = data.s == 1
    k = in_a.sum(axis=-1)
    if (k != k.flat[0]).any():
        raise ValueError("every replicate of a batch must put the same number of blocks in arm A")
    order = np.argsort(~in_a, axis=-1, kind="stable")
    return _BlockStats(
        means=means,
        uptake=np.where(missing >= 0, np.nan, rates[1] - rates[0]),
        missing=missing,
        by_arm=np.take_along_axis(means, order[None], axis=-1),
        k=int(k.flat[0]),
    )


def _arm_mean(stats: _BlockStats, z: int, arm: str):
    if arm not in ("a", "b"):
        raise ValueError(f"arm must be 'a' or 'b', got {arm!r}")
    blocks = stats.by_arm[z, ..., :stats.k] if arm == "a" else stats.by_arm[z, ..., stats.k:]
    if blocks.shape[-1] == 0:
        raise EmptyArm(f"no blocks in arm {arm!r}")
    return blocks.mean(axis=-1)


def _pooled_uptake(stats: _BlockStats):
    """Mean uptake contrast over the blocks where it is defined (NaN if none),
    summed as ``np.nanmean`` sums."""
    defined = stats.missing < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(defined, stats.uptake, 0.0).sum(axis=-1) / defined.sum(axis=-1)


def yhat_block(data: ExperimentData, i: int, z: int) -> float:
    """Inverse-probability block mean of the outcome at encouragement value z."""
    return float(_block_stats(data).means[z, i])


def yhat_pop(data: ExperimentData, z: int, arm: str) -> float:
    """Mean of yhat_block over the blocks assigned to the given arm ("a"/"b")."""
    return float(_arm_mean(_block_stats(data), z, arm))


def _ditt(stats: _BlockStats, arm: str):
    return _arm_mean(stats, 1, arm) - _arm_mean(stats, 0, arm)


def _pitt(stats: _BlockStats, z: int):
    return _arm_mean(stats, z, "a") - _arm_mean(stats, z, "b")


def ditt_hat(data: ExperimentData, arm: str = "a") -> float:
    """Within-arm contrast of encouraged vs unencouraged outcome means."""
    return float(_ditt(_block_stats(data), arm))


def pitt_hat(data: ExperimentData, z: int) -> float:
    """Across-arm contrast of outcome means at a fixed encouragement value."""
    return float(_pitt(_block_stats(data), z))


@dataclass(frozen=True)
class EtEstimate:
    value: float
    per_block: tuple[float, ...]  # NaN where undefined
    dropped: tuple[tuple[int, str], ...]

    @property
    def n_defined(self) -> int:
        return len(self.per_block) - len(self.dropped)


def _et(stats: _BlockStats) -> EtEstimate:
    dropped = np.flatnonzero(stats.missing >= 0)
    if dropped.size == stats.uptake.size:
        raise AllBlocksUndefined("every block lacks one encouragement value")
    return EtEstimate(
        value=float(_pooled_uptake(stats)),
        per_block=tuple(stats.uptake.tolist()),
        dropped=tuple((i, f"no units with Z={m}")
                      for i, m in zip(dropped.tolist(), stats.missing[dropped].tolist())),
    )


def et_hat(data: ExperimentData) -> EtEstimate:
    """Per-block ratio-of-means uptake contrast, pooled across all blocks.

    A block where either encouragement value was never realized has no
    defined contrast; it is excluded from the population mean and reported.
    """
    return _et(_block_stats(data))


def _checked_et(stats: _BlockStats) -> float:
    value = _et(stats).value
    if abs(value) < ET_ZERO_TOL:
        raise ZeroEncouragementEffectEstimate(
            f"estimated uptake effect {value!r} is numerically zero"
        )
    return value


def ldt_hat(data: ExperimentData, arm: str = "a") -> float:
    """Plug-in ratio estimator of the complier local direct effect."""
    stats = _block_stats(data)
    return float(_ditt(stats, arm)) / _checked_et(stats)


def lpt_diff_hat(data: ExperimentData) -> float:
    """Plug-in ratio estimator of the complier local peer effect difference."""
    stats = _block_stats(data)
    return float(_pitt(stats, 1) - _pitt(stats, 0)) / _checked_et(stats)


def lpt0_hat(data: ExperimentData) -> float:
    """Plug-in estimator of the everyone local peer effect at d=0 under
    one-sided compliance (no ratio involved)."""
    return pitt_hat(data, 0)


def _estimates(stats: _BlockStats) -> dict[str, np.ndarray]:
    """Every estimator from the block statistics. The uptake estimate pools
    the blocks where it is defined; a ratio estimator is NaN where the uptake
    is undefined or numerically zero."""
    uptake = _pooled_uptake(stats)
    da, p1, p0 = _ditt(stats, "a"), _pitt(stats, 1), _pitt(stats, 0)
    ratio_ok = np.abs(uptake) >= ET_ZERO_TOL  # False for NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        return {
            "ditt_hat_a": da,
            "ditt_hat_b": _ditt(stats, "b"),
            "pitt_hat_1": p1,
            "pitt_hat_0": p0,
            "et_hat": uptake,
            "ldt_hat": np.where(ratio_ok, da / uptake, np.nan),
            "lpt_diff_hat": np.where(ratio_ok, (p1 - p0) / uptake, np.nan),
            "lpt0_hat": p0,
        }


def estimator_battery(data: ExperimentData) -> dict:
    """Every estimator on one realization (floats), or on each replicate of a
    batch ((R,) arrays). Undefined ratio estimators come back as NaN so
    replication batches never abort."""
    values = _estimates(_block_stats(data))
    if data.z.ndim > 1:
        return values
    return {name: float(v) for name, v in values.items()}


@dataclass(frozen=True)
class EstimateReport(JsonReport):
    ditt_hat_a: float
    ditt_hat_b: float
    pitt_hat_1: float
    pitt_hat_0: float
    et_hat: float
    ldt_hat: float | None
    lpt_diff_hat: float | None
    lpt0_hat: float
    arm_sizes: tuple[int, int]
    et_blocks_dropped: tuple[tuple[int, str], ...]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "ditt_hat_a": self.ditt_hat_a,
            "ditt_hat_b": self.ditt_hat_b,
            "pitt_hat_1": self.pitt_hat_1,
            "pitt_hat_0": self.pitt_hat_0,
            "et_hat": self.et_hat,
            "ldt_hat": self.ldt_hat,
            "lpt_diff_hat": self.lpt_diff_hat,
            "lpt0_hat": self.lpt0_hat,
            "arm_sizes": list(self.arm_sizes),
            "et_blocks_dropped": [[i, why] for i, why in self.et_blocks_dropped],
            "notes": list(self.notes),
        }

    def to_csv(self) -> str:
        rows = ["field,value"]
        for name in ("ditt_hat_a", "ditt_hat_b", "pitt_hat_1", "pitt_hat_0",
                     "et_hat", "ldt_hat", "lpt_diff_hat", "lpt0_hat"):
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
    estimate the same quantity); the pooling is recorded in the notes.
    """
    stats = _block_stats(data)
    uptake = _et(stats)
    values = {name: float(v) for name, v in _estimates(stats).items()}
    notes = ["et_hat pools defined blocks from both mechanism arms"]
    if abs(uptake.value) < ET_ZERO_TOL:
        values["ldt_hat"] = values["lpt_diff_hat"] = None
        notes.append("uptake estimate is zero; ratio estimators undefined")
    return EstimateReport(
        **values,
        arm_sizes=(int(np.sum(data.s == 1)), int(np.sum(data.s == 0))),
        et_blocks_dropped=uptake.dropped,
        notes=tuple(notes),
    )
