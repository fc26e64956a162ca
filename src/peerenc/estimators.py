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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import ExperimentData
from .errors import AllBlocksUndefined, EmptyArm, ZeroEncouragementEffectEstimate

ET_ZERO_TOL = 1e-12


def yhat_block(data: ExperimentData, i: int, z: int) -> float:
    """Inverse-probability block mean of the outcome at encouragement value z.

    The denominator is the block size times each unit's design probability of
    showing the requested encouragement; a block with no such units has an
    empty numerator and correctly contributes zero.
    """
    sl = data.block_slice(i)
    y = data.y[sl]
    zz = data.z[sl]
    p = data.p_enc[sl] if z == 1 else 1.0 - data.p_enc[sl]
    n = int(data.sizes[i])
    return float(np.sum(y * (zz == z) / p) / n)


def yhat_pop(data: ExperimentData, z: int, arm: str) -> float:
    """Mean of yhat_block over the blocks assigned to the given arm ("a"/"b")."""
    if arm not in ("a", "b"):
        raise ValueError(f"arm must be 'a' or 'b', got {arm!r}")
    want = 1 if arm == "a" else 0
    blocks = [i for i in range(data.n_blocks) if data.s[i] == want]
    if not blocks:
        raise EmptyArm(f"no blocks in arm {arm!r}")
    return float(sum(yhat_block(data, i, z) for i in blocks) / len(blocks))


def ditt_hat(data: ExperimentData, arm: str = "a") -> float:
    """Within-arm contrast of encouraged vs unencouraged outcome means."""
    return yhat_pop(data, 1, arm) - yhat_pop(data, 0, arm)


def pitt_hat(data: ExperimentData, z: int) -> float:
    """Across-arm contrast of outcome means at a fixed encouragement value."""
    return yhat_pop(data, z, "a") - yhat_pop(data, z, "b")


@dataclass(frozen=True)
class EtEstimate:
    value: float
    per_block: tuple[float, ...]  # NaN where undefined
    dropped: tuple[tuple[int, str], ...]

    @property
    def n_defined(self) -> int:
        return sum(1 for v in self.per_block if v == v)


def et_hat(data: ExperimentData, z_hi: int = 1, z_lo: int = 0) -> EtEstimate:
    """Per-block ratio-of-means uptake contrast, pooled across all blocks.

    A block where either encouragement value was never realized has no
    defined contrast; it is excluded from the population mean and reported.
    """
    per_block = []
    dropped = []
    for i in range(data.n_blocks):
        sl = data.block_slice(i)
        zz = data.z[sl]
        dd = data.d[sl]
        hi_mask = zz == z_hi
        lo_mask = zz == z_lo
        if not hi_mask.any() or not lo_mask.any():
            missing = z_hi if not hi_mask.any() else z_lo
            per_block.append(float("nan"))
            dropped.append((i, f"no units with Z={missing}"))
            continue
        per_block.append(
            float(dd[hi_mask].mean() - dd[lo_mask].mean())
        )
    defined = [v for v in per_block if v == v]
    if not defined:
        raise AllBlocksUndefined("every block lacks one encouragement value")
    return EtEstimate(
        value=float(sum(defined) / len(defined)),
        per_block=tuple(per_block),
        dropped=tuple(dropped),
    )


def _checked_et(data: ExperimentData) -> float:
    est = et_hat(data)
    if abs(est.value) < ET_ZERO_TOL:
        raise ZeroEncouragementEffectEstimate(
            f"estimated uptake effect {est.value!r} is numerically zero"
        )
    return est.value


def ldt_hat(data: ExperimentData, arm: str = "a") -> float:
    """Plug-in ratio estimator of the complier local direct effect."""
    return ditt_hat(data, arm) / _checked_et(data)


def lpt_diff_hat(data: ExperimentData) -> float:
    """Plug-in ratio estimator of the complier local peer effect difference."""
    return (pitt_hat(data, 1) - pitt_hat(data, 0)) / _checked_et(data)


def lpt0_hat(data: ExperimentData) -> float:
    """Plug-in estimator of the everyone local peer effect at d=0 under
    one-sided compliance (no ratio involved)."""
    return pitt_hat(data, 0)


def estimator_battery(data: ExperimentData) -> dict[str, float]:
    """Every estimator on one realization, in one pass over the blocks.

    Float-identical to calling the individual estimator functions (same
    expressions, same accumulation order); undefined ratio estimators come
    back as NaN so replication batches never abort.
    """
    per_arm: dict[tuple[int, str], list[float]] = {
        (1, "a"): [], (0, "a"): [], (1, "b"): [], (0, "b"): []
    }
    for i in range(data.n_blocks):
        sl = data.block_slice(i)
        y = data.y[sl]
        zz = data.z[sl]
        p = data.p_enc[sl]
        n = int(data.sizes[i])
        arm = "a" if data.s[i] == 1 else "b"
        per_arm[(1, arm)].append(float(np.sum(y * (zz == 1) / p) / n))
        per_arm[(0, arm)].append(float(np.sum(y * (zz == 0) / (1.0 - p)) / n))
    means = {}
    for key, vals in per_arm.items():
        if not vals:
            raise EmptyArm(f"no blocks in arm {key[1]!r}")
        means[key] = float(sum(vals) / len(vals))

    da = means[(1, "a")] - means[(0, "a")]
    db = means[(1, "b")] - means[(0, "b")]
    p1 = means[(1, "a")] - means[(1, "b")]
    p0 = means[(0, "a")] - means[(0, "b")]
    try:
        uptake = et_hat(data).value
    except AllBlocksUndefined:
        uptake = float("nan")
    if uptake == uptake and abs(uptake) >= ET_ZERO_TOL:
        ldt = da / uptake
        lpt_diff = (p1 - p0) / uptake
    else:
        ldt = float("nan")
        lpt_diff = float("nan")
    return {
        "ditt_hat_a": da,
        "ditt_hat_b": db,
        "pitt_hat_1": p1,
        "pitt_hat_0": p0,
        "et_hat": uptake,
        "ldt_hat": ldt,
        "lpt_diff_hat": lpt_diff,
        "lpt0_hat": p0,
    }


@dataclass(frozen=True)
class EstimateReport:
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def write_json(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

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
    uptake = et_hat(data)
    notes = ["et_hat pools defined blocks from both mechanism arms"]
    ldt = lpt_diff = None
    if abs(uptake.value) >= ET_ZERO_TOL:
        ldt = ditt_hat(data, "a") / uptake.value
        lpt_diff = (pitt_hat(data, 1) - pitt_hat(data, 0)) / uptake.value
    else:
        notes.append("uptake estimate is zero; ratio estimators undefined")
    return EstimateReport(
        ditt_hat_a=ditt_hat(data, "a"),
        ditt_hat_b=ditt_hat(data, "b"),
        pitt_hat_1=pitt_hat(data, 1),
        pitt_hat_0=pitt_hat(data, 0),
        et_hat=uptake.value,
        ldt_hat=ldt,
        lpt_diff_hat=lpt_diff,
        lpt0_hat=lpt0_hat(data),
        arm_sizes=(int(np.sum(data.s == 1)), int(np.sum(data.s == 0))),
        et_blocks_dropped=uptake.dropped,
        notes=tuple(notes),
    )
