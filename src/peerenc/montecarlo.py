"""Replication engine: estimator distributions vs exact targets, and
packaged verification of the identification identities.

Each replicate draws its randomness from one stream addressed by the
replicate index, so its values do not depend on which replicates ran before it;
results are reduced in replicate-index order. Replicates where a ratio
estimator is undefined (e.g. the uptake estimate is zero, or every block
lost one encouragement arm) are counted and excluded from the moments
rather than aborting the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._report import JsonReport
from .design import DesignConfig, batch_size, draw_replicates
from .errors import (
    EmptyStratumInBlock,
    InvalidConfig,
    ZeroEncouragementEffect,
)
from .estimands import (
    IdentityReport,
    ditt,
    et,
    member_averages,
    pitt,
    theorem_1_check,
    theorem_2_check,
    theorem_3_check,
)
from .estimators import ET_ZERO_TOL, estimator_battery
from .population import Population

# The (R, 8) float64 values of one run stay within 1 GiB.
MAX_REPLICATIONS = 1 << 24

ESTIMATOR_NAMES = (
    "ditt_hat_a",
    "ditt_hat_b",
    "pitt_hat_1",
    "pitt_hat_0",
    "et_hat",
    "ldt_hat",
    "lpt_diff_hat",
    "lpt0_hat",
)


def check_replications(replications: int) -> None:
    """Raise InvalidConfig unless 0 <= replications <= MAX_REPLICATIONS."""
    if not 0 <= replications <= MAX_REPLICATIONS:
        raise InvalidConfig(f"replications must lie in 0..{MAX_REPLICATIONS}, got {replications}")


def replicate_values(
    pop: Population,
    cfg: DesignConfig,
    replications: int,
    first_replicate: int = 0,
) -> np.ndarray:
    """Raw estimator values, one row per replicate in index order.

    Row r of a run starting at ``first_replicate`` f is identical to row
    f + r of a run starting at 0: a replicate's stream depends only on its
    absolute index, so split runs pool exactly. Replicates are drawn and
    estimated in batches of ``batch_size(pop)``.
    """
    check_replications(replications)
    out = np.empty((replications, len(ESTIMATOR_NAMES)))
    step = batch_size(pop)
    for lo in range(0, replications, step):
        count = min(step, replications - lo)
        values = estimator_battery(draw_replicates(pop, cfg, first_replicate + lo, count))
        out[lo:lo + count] = np.stack([values[name] for name in ESTIMATOR_NAMES], axis=-1)
    return out


def exact_targets(pop: Population, cfg: DesignConfig) -> dict[str, float]:
    """Exact values each estimator is aiming at, from the exact engine."""
    a, b = member_averages(pop, cfg.mech_a), member_averages(pop, cfg.mech_b)
    ditt_a, ditt_b = ditt(a).population, ditt(b).population
    pitt_1, pitt_0 = pitt(a, b, 1).population, pitt(a, b, 0).population
    uptake = et(pop).population
    targets = {
        "ditt_hat_a": ditt_a,
        "ditt_hat_b": ditt_b,
        "pitt_hat_1": pitt_1,
        "pitt_hat_0": pitt_0,
        "et_hat": uptake,
        "lpt0_hat": pitt_0,
    }
    if uptake != 0.0:
        targets["ldt_hat"] = ditt_a / uptake
        targets["lpt_diff_hat"] = (pitt_1 - pitt_0) / uptake
    return targets


@dataclass(frozen=True)
class EstimatorSummary:
    name: str
    mean: float
    sd: float
    mcse: float
    target: float | None
    std_bias: float | None
    n_defined: int
    n_undefined: int


@dataclass(frozen=True)
class McSummary(JsonReport):
    replications: int
    seed: int
    estimators: tuple[EstimatorSummary, ...]

    def get(self, name: str) -> EstimatorSummary:
        for s in self.estimators:
            if s.name == name:
                return s
        raise KeyError(name)

    def text_table(self) -> str:
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


def replicate(
    pop: Population,
    cfg: DesignConfig,
    replications: int,
    targets: dict[str, float] | None = None,
) -> McSummary:
    """Run the design ``replications`` times and summarize every estimator.

    Deterministic given (pop, cfg). Targets come from the exact engine
    unless supplied; ``targets={}`` summarizes without any.
    """
    if replications < 2:
        raise InvalidConfig("need at least 2 replications")
    if targets is None:
        targets = exact_targets(pop, cfg)
    values = replicate_values(pop, cfg, replications)
    summaries = tuple(
        _summarize_column(name, values[:, idx], targets.get(name))
        for idx, name in enumerate(ESTIMATOR_NAMES)
    )
    return McSummary(replications=replications, seed=cfg.seed, estimators=summaries)


# --------------------------------------------------------------------------
# Theorem verification: exact identities + plug-in estimator behavior
# --------------------------------------------------------------------------

# Each theorem check: its name, the plug-in estimator of its rhs and the
# --expect-fail flag that names it.
_THEOREMS = (
    ("theorem_1", "ldt_hat", "thm1"),
    ("theorem_2", "lpt_diff_hat", "thm2"),
    ("theorem_3[z=0]", "lpt0_hat", "thm3"),
    ("theorem_3[z=1]", "pitt_hat_1", "thm3"),
)


@dataclass(frozen=True)
class TheoremVerification:
    name: str
    identity: IdentityReport | None
    error: str | None
    plugin_estimator: str
    plugin_mean: float | None
    plugin_mcse: float | None
    plugin_std_bias: float | None

    @property
    def exact_ok(self) -> bool:
        return self.identity is not None and self.identity.passed


@dataclass(frozen=True)
class VerificationReport(JsonReport):
    theorems: tuple[TheoremVerification, ...]
    mc: McSummary | None

    def get(self, name: str) -> TheoremVerification:
        for t in self.theorems:
            if t.name == name:
                return t
        raise KeyError(name)

    def text_table(self) -> str:
        lines = []
        for t in self.theorems:
            if t.identity is None:
                lines.append(f"{t.name:<16} degenerate: {t.error}")
                continue
            rep = t.identity
            status = "pass" if rep.passed else "FAIL"
            assume = "ok" if rep.assumptions_ok else "violated"
            lines.append(
                f"{t.name:<16} {status}  lhs={rep.lhs:.12g} rhs={rep.rhs:.12g} "
                f"gap={rep.gap:.3g} assumptions={assume}"
            )
            for note in rep.assumption_notes:
                lines.append(f"{'':<17}note: {note}")
            if not rep.passed and rep.block_identity_ok:
                lines.append(
                    f"{'':<17}note: the identity holds in every block individually"
                )
                if rep.note:
                    lines.append(f"{'':<17}note: {rep.note}")
            if t.plugin_std_bias is not None:
                lines.append(
                    f"{'':<17}plug-in {t.plugin_estimator}: mean={t.plugin_mean:.6g} "
                    f"std_bias_vs_rhs={t.plugin_std_bias:.3g}"
                )
        return "\n".join(lines)


def verify_theorems(
    pop: Population,
    mech_a,
    mech_b,
    replications: int = 0,
    seed: int = 0,
    k: int | None = None,
) -> VerificationReport:
    """Exact identity checks for all three identification results, plus the
    matching plug-in estimators' Monte Carlo behavior when replications > 0.

    Degenerate cases (zero uptake effect, a block with no compliers) are
    reported inline instead of raising, so negative tests can run end to end.
    Each mechanism's exact kernel is evaluated once and shared by the checks.
    """
    a, b = member_averages(pop, mech_a), member_averages(pop, mech_b)
    plugin_of = {name: plugin for name, plugin, _ in _THEOREMS}
    checks: list[tuple[str, IdentityReport | None, str | None]] = []

    def attempt(name, fn):
        try:
            checks.append((name, fn(), None))
        except (ZeroEncouragementEffect, EmptyStratumInBlock) as exc:
            checks.append((name, None, f"{type(exc).__name__}: {exc}"))

    attempt("theorem_1", lambda: theorem_1_check(a))
    attempt("theorem_2", lambda: theorem_2_check(a, b))
    attempt("theorem_3[z=0]", lambda: theorem_3_check(a, b, z=0))
    if pop.d1.all():
        attempt("theorem_3[z=1]", lambda: theorem_3_check(a, b, z=1))

    mc = None
    if replications > 0:
        cfg = DesignConfig(
            mech_a=mech_a, mech_b=mech_b, k=k if k is not None else pop.n_blocks // 2, seed=seed
        )
        # bias is judged against each theorem's rhs, not the generic targets
        rhs_targets = {
            plugin_of[name]: rep.rhs for name, rep, _ in checks if rep is not None
        }
        mc = replicate(pop, cfg, replications, targets=rhs_targets)

    theorems = []
    for name, rep, error in checks:
        plugin = plugin_of[name]
        mean = mcse = bias = None
        if mc is not None:
            s = mc.get(plugin)
            mean, mcse, bias = s.mean, s.mcse, s.std_bias
        theorems.append(
            TheoremVerification(
                name=name,
                identity=rep,
                error=error,
                plugin_estimator=plugin,
                plugin_mean=mean,
                plugin_mcse=mcse,
                plugin_std_bias=bias,
            )
        )
    return VerificationReport(theorems=tuple(theorems), mc=mc)


def verification_passes(report: VerificationReport, expect_fail: set[str] = frozenset()) -> bool:
    """Gate semantics: every theorem must pass, unless its flag is in
    expect_fail, in which case it must fail (a surprise pass also gates)."""
    flag_of = {name: flag for name, _, flag in _THEOREMS}
    for t in report.theorems:
        ok = t.exact_ok
        if flag_of[t.name] in expect_fail:
            if ok:
                return False
        elif not ok:
            return False
    return True
