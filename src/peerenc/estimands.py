"""Exact population-level causal quantities by exhaustive averaging.

Everything here is a finite sum, computed exactly (no sampling):

* intent-to-treat averages: an individual's own encouragement is pinned while
  the peers' encouragement vector is averaged under a mechanism's product
  law, with everyone taking the treatment their encouragement induces;
* local averages: an individual's own *treatment* is pinned while peers take
  their natural (encouragement-induced) treatments, averaged the same way;
* the uptake effect: the average shift in treatment caused by encouragement,
  a mechanism-free quantity.

One kernel evaluates every individual's four conditional averages under a
mechanism (intent-to-treat at z = 0, 1, local at d = 0, 1), exactly, by one
route per outcome representation. Under the product law each peer is
treated independently with an effective uptake probability q (always-takers
1, never-takers 0, compliers their encouragement probability, defiers its
complement). Structural outcomes are quadratic in the treated-peer count K,
so they need only E[K] and Var[K]: sums of q and q(1-q) over the peers.
Tables are contracted axis by axis over the same law, with elementwise
multiplies and adds only, so no BLAS kernel can change a byte. The test
suite cross-checks the routes. Every family
and identity check takes kernel results (``member_averages``), so a caller
evaluates the kernel once per mechanism; each assembles block means of the
kernel's output, and a family's population value is the unweighted mean of
its block values.

``verify_theorems`` runs the identity checks as one catalog, reporting
degenerate cases inline; ``verification_passes`` is the ``--expect-fail`` gate.
"""

from __future__ import annotations

import numpy as np

from ._report import JsonReport, Record
from .errors import EmptyStratumInBlock, ZeroEncouragementEffect
from .mechanisms import Mechanism, unit_marginals
from .population import ComplianceType, Population

# A computed identity passes when |lhs-rhs| <= max(ABS_TOL, REL_TOL*scale):
# all quantities are short sums of products of probabilities, so double
# precision keeps genuine identities far inside these margins.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Table entries one gather of the table pass holds at most (16 MiB of
# float64), one member at least: the pass's memory follows the chunk, not
# the block-size group.
GATHER_ENTRIES = 1 << 21


def identity_ok(lhs, rhs):
    """Elementwise: numbers or arrays of them; False wherever either is NaN."""
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return np.abs(lhs - rhs) <= np.maximum(ABS_TOL, REL_TOL * scale)


def _block_means(pop: Population, values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per-block mean of a per-individual array over the members."""
    firsts = pop.starts[:-1]
    return np.add.reduceat(np.where(members, values, 0), firsts) / np.add.reduceat(members, firsts)


class MemberAverages(Record, eq=False):
    """Each individual's averages under one mechanism, in block order:
    ``itt[z]`` pins the own encouragement at z, ``local[d]`` the own treatment
    at d (averaging the own encouragement with p for encouragement-keyed
    tables). Stratum averages are read through ``members``, which refuses a
    block with no member in the stratum. Whether a local average is published
    is decided by its caller: the report skips them when the exclusion
    restriction fails, and the identity checks note it. The arrays are
    read-only: one kernel is shared by every family and check."""

    pop: Population
    itt: np.ndarray  # (2, N)
    local: np.ndarray  # (2, N)

    def itt_blocks(self, z: int) -> np.ndarray:
        return _block_means(self.pop, self.itt[z], self.pop.in_stratum(None))

    def local_blocks(self, d: int, stratum: ComplianceType | None = None) -> np.ndarray:
        return _block_means(self.pop, self.local[d], self.members(stratum))

    def members(self, stratum: ComplianceType | None = None) -> np.ndarray:
        """Mask of the individuals in a stratum (everyone for None). Raises
        for the first block with no member in the stratum."""
        pop = self.pop
        members = pop.in_stratum(stratum)
        if stratum is not None:
            empty = np.flatnonzero(np.add.reduceat(members, pop.starts[:-1]) == 0)
            if empty.size:
                raise EmptyStratumInBlock(f"block {empty[0]} has no {stratum.value} individuals")
        return members


def _contract(entries: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Average entries (..., 2^n) over a product law on n bits, most
    significant first: bit k is 1 with probability ones[k] (each (...,)).
    Axis by axis, the two halves are weighted and added elementwise, so every
    sum has one order whatever BLAS numpy links. A probability of 0 or 1 pins
    its axis: the kept half passes through unchanged."""
    for w in ones:
        half = entries.shape[-1] // 2
        entries = entries[..., :half] * (1.0 - w)[..., None] + entries[..., half:] * w[..., None]
    return entries[..., 0]


def _pinned(probs: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per-axis probabilities (n, 2, m) for m table members: probs (n, m) of
    each member's block on every axis, but row v pins member j's axis own[j] at v."""
    axis = np.arange(len(probs))[:, None, None] == own
    return np.where(axis, np.arange(2)[:, None], probs[:, None])


def _chunks(members: np.ndarray, entries: int):
    """Runs of ``members`` whose gathers, ``entries`` per member, fit
    GATHER_ENTRIES; a member's averages read only its own entries, so the
    split moves no byte."""
    step = max(1, GATHER_ENTRIES // entries)
    return (members[i:i + step] for i in range(0, members.size, step))


def member_averages(pop: Population, mech: Mechanism) -> MemberAverages:
    """The exact kernel: closed-form peer-count moments for structural
    outcomes, and one pass per block size for table members. A plain table is
    contracted over its peers' treatment axes with q, its own axis pinned. An
    encouragement-keyed table is gathered at the treatments each encouragement
    vector induces, its own treatment forced to 0 and to 1, then contracted
    over the encouragement axes with p. Every family and check reads its result."""
    firsts, sizes = pop.starts[:-1], np.diff(pop.starts)
    p = unit_marginals(mech, sizes)
    q = np.where(pop.d0 == pop.d1, pop.d0, np.where(pop.d1 == 1, p, 1.0 - p))
    mean = np.repeat(np.add.reduceat(q, firsts), sizes) - q
    var = np.repeat(np.add.reduceat(q * (1.0 - q), firsts), sizes) - q * (1.0 - q)
    c0, c_dir, c_peer, c_inter, c_curv, c_noise = pop.coef
    local = np.where(pop.structural, [
        c0 + c_dir * d + (c_peer + c_inter * d) * mean + c_curv * (var + mean * mean) + c_noise
        for d in (0, 1)
    ], np.nan)
    treated = np.stack([pop.d0, pop.d1]) == 1  # the own treatment at own encouragement z
    itt = np.where(treated, local[1], local[0])
    # each individual's block size and its own axis (its place in the block)
    size_of, own = np.repeat(sizes, sizes), np.arange(q.size) - np.repeat(firsts, sizes)
    # one pass per block size that holds a table member (np.unique loads
    # numpy.ma), over its members in chunks of at most GATHER_ENTRIES entries
    for n in np.flatnonzero(np.bincount(size_of[~pop.structural])):
        z = np.arange(2**n)
        # a plain member: local[v] pins the own treatment at v while the
        # peers' follow q; itt[z] is local at the own treatment z induces
        for u in _chunks(np.flatnonzero(~pop.structural & ~pop.z_dependent & (size_of == n)),
                         2**n):
            block = (u - own[u])[:, None] + np.arange(n)  # (m, n): each member's block
            entries = pop.table[pop.table_start[u][:, None] + z]
            local[:, u] = _contract(entries, _pinned(q[block].T, own[u]))
            itt[:, u] = np.where(treated[:, u], local[1, u], local[0, u])
        # a keyed member: entries[v, j, z] is member j's entry at encouragement
        # row z and the treatments z induces, its own treatment forced to v
        for u in _chunks(np.flatnonzero(pop.z_dependent & (size_of == n)), 2 * 2**n):
            block = (u - own[u])[:, None] + np.arange(n)
            # the treatment rows at z = 0...0 and at 1...1: encouragement row z
            # takes each member's treatment bit from the row its own z bit picks
            row0, row1 = ((x[block].astype(np.int64) << (n - 1 - np.arange(n)))
                          .sum(1, keepdims=True) for x in (pop.d0, pop.d1))
            bit = (1 << (n - 1 - own[u]))[:, None]
            rows = (z & row1 | ~z & row0) & ~bit | np.arange(2)[:, None, None] * bit
            entries = pop.table[pop.table_start[u][:, None] + (rows << n) + z]
            local[:, u] = _contract(entries, p[block].T[:, None])
            itt[:, u] = _contract(np.where(treated[:, u, None], entries[1], entries[0]),
                                  _pinned(p[block].T, own[u]))
    return MemberAverages(pop=pop, itt=itt, local=local)


# --------------------------------------------------------------------------
# Block and population estimand families
# --------------------------------------------------------------------------


class BlockSummary(Record, eq=False):
    """Per-block values, a read-only float64 array, plus their unweighted
    population mean."""

    per_block: np.ndarray
    population: float


def _summarize(per_block: np.ndarray) -> BlockSummary:
    """The mean sums strictly left to right from +0.0, as Python 3.11's
    ``sum()`` does (3.12's is compensated), so the bytes of a report do not
    depend on the interpreter; +0.0 makes a sum of -0.0 values read 0.0."""
    total = 0.0 + np.add.accumulate(per_block)[-1]
    return BlockSummary(per_block=per_block, population=float(total / per_block.size))


def _same_population(a: MemberAverages, b: MemberAverages) -> None:
    if a.pop is not b.pop:
        raise ValueError("a contrast needs two kernels of the same population")


def ditt(avg: MemberAverages) -> BlockSummary:
    """Direct intent-to-treat effect: own encouragement 1 against 0."""
    return _summarize(avg.itt_blocks(1) - avg.itt_blocks(0))


def pitt(a: MemberAverages, b: MemberAverages, z: int) -> BlockSummary:
    """Peer intent-to-treat effect: the peers' mechanism a against b."""
    _same_population(a, b)
    return _summarize(a.itt_blocks(z) - b.itt_blocks(z))


def et(pop: Population) -> BlockSummary:
    """Average effect of encouragement on treatment uptake (mechanism-free)."""
    return _summarize(_block_means(pop, pop.d1.astype(np.int64) - pop.d0, pop.in_stratum(None)))


def ldt(avg: MemberAverages,
        stratum: ComplianceType | None = ComplianceType.COMPLIER) -> BlockSummary:
    """Local direct treatment effect: own treatment 1 against 0, peers natural."""
    return _summarize(avg.local_blocks(1, stratum) - avg.local_blocks(0, stratum))


def lpt(a: MemberAverages, b: MemberAverages, d: int,
        stratum: ComplianceType | None = None) -> BlockSummary:
    """Local peer treatment effect; stratum None averages over everyone."""
    _same_population(a, b)
    return _summarize(a.local_blocks(d, stratum) - b.local_blocks(d, stratum))


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------


class IdentityReport(JsonReport, eq=False):
    name: str
    lhs: float
    rhs: float
    gap: float  # lhs - rhs
    passed: bool
    block_identity_ok: bool  # the identity holds block by block wherever defined
    assumptions_ok: bool
    assumption_notes: tuple[str, ...]
    block_lhs: np.ndarray  # read-only float64, NaN where a block's value is undefined
    block_rhs: np.ndarray
    note: str | None = None


# The identities' assumptions by name: whether a population satisfies it,
# and the note its violation adds.
_ASSUMPTIONS = {
    "monotonicity": (lambda pop: pop.monotone, "monotonicity violated: defiers present"),
    "exclusion": (lambda pop: pop.exclusion_ok,
                  "exclusion restriction violated: encouragement-dependent outcomes"),
    "one_sided": (lambda pop: pop.one_sided,
                  "one-sided compliance violated: someone takes treatment unencouraged"),
    "mirror": (lambda pop: pop.d1.all(),
               "mirror condition violated: someone declines treatment when encouraged"),
}


def _ratio_denominator(pop: Population) -> BlockSummary:
    uptake = et(pop)
    if uptake.population == 0.0:
        raise ZeroEncouragementEffect("population uptake effect is zero; ratio undefined")
    return uptake


def _identity(name: str, pop: Population, assumes: tuple[str, ...], lhs: BlockSummary,
              rhs: BlockSummary, uptake: BlockSummary | None = None) -> IdentityReport:
    """The report of lhs = rhs, in the population and block by block, with a
    note per assumption in ``assumes``, in that order, that pop violates.
    With an uptake effect, lhs is the ITT contrast over it: NaN in a block
    whose uptake effect is zero, and the population ratio notes when blocks'
    uptake effects differ, since the block-level identity then does not
    aggregate."""
    block_lhs, lhs_value, note = lhs.per_block, lhs.population, None
    if uptake is not None:
        e = uptake.per_block
        block_lhs = np.divide(block_lhs, e, out=np.full(e.size, np.nan), where=e != 0.0)
        lhs_value /= uptake.population
        if e.min() != e.max():
            note = ("blocks have unequal uptake effects, so the block-level ratio "
                    "identity does not aggregate to this population-level ratio")
    notes = tuple(text for holds, text in (_ASSUMPTIONS[k] for k in assumes) if not holds(pop))
    defined = np.isfinite(block_lhs)
    return IdentityReport(
        name=name,
        lhs=lhs_value,
        rhs=rhs.population,
        gap=lhs_value - rhs.population,
        passed=bool(identity_ok(lhs_value, rhs.population)),
        block_identity_ok=bool(defined.any()
                               and identity_ok(block_lhs[defined], rhs.per_block[defined]).all()),
        assumptions_ok=not notes,
        assumption_notes=notes,
        block_lhs=block_lhs,
        block_rhs=rhs.per_block,
        note=note,
    )


def theorem_1_check(avg: MemberAverages) -> IdentityReport:
    """Ratio identification of the complier local direct effect.

    lhs: population direct ITT effect over the population uptake effect.
    rhs: complier local direct treatment effect.
    Also reports the block-level ratio identity, which is what the averaging
    argument actually delivers; the population ratio coincides with it when
    every block has the same uptake effect. Runs regardless of assumption
    flags so violations can be demonstrated, and reports their status.
    """
    uptake = _ratio_denominator(avg.pop)
    return _identity("theorem_1", avg.pop, ("monotonicity", "exclusion"), ditt(avg), ldt(avg),
                     uptake)


def theorem_2_check(a: MemberAverages, b: MemberAverages) -> IdentityReport:
    """Ratio identification of the complier local peer effect difference.

    lhs: (peer ITT at z=1 minus peer ITT at z=0) over the uptake effect.
    rhs: complier local peer effect at d=1 minus at d=0.
    Same block-level vs population-level caveat as theorem_1_check.
    """
    uptake = _ratio_denominator(a.pop)
    peer_itt = [pitt(a, b, z) for z in (0, 1)]
    peer_local = [lpt(a, b, d, ComplianceType.COMPLIER) for d in (0, 1)]
    return _identity("theorem_2", a.pop, ("monotonicity", "exclusion"),
                     _summarize(peer_itt[1].per_block - peer_itt[0].per_block),
                     _summarize(peer_local[1].per_block - peer_local[0].per_block), uptake)


def theorem_3_check(a: MemberAverages, b: MemberAverages, z: int = 0) -> IdentityReport:
    """Peer ITT equals the everyone local peer effect at the pinned arm.

    z=0 needs one-sided compliance (nobody treated unencouraged); z=1 is the
    mirror variant (everyone encouraged takes treatment). Holds block by
    block, hence at the population level with no ratio involved.
    """
    return _identity(f"theorem_3[z={z}]", a.pop, ("exclusion", ("one_sided", "mirror")[z]),
                     pitt(a, b, z), lpt(a, b, z))


# --------------------------------------------------------------------------
# Theorem verification: the catalog of checks and the --expect-fail gate
# --------------------------------------------------------------------------

# Each theorem check: its name, the plug-in estimator of its rhs, the
# --expect-fail flag that names it and the check on the two mechanisms'
# kernels. The mirror variant of theorem 3 (z=1) is checked only where
# everyone encouraged takes the treatment.
_THEOREMS = (
    ("theorem_1", "ldt_hat", "thm1", lambda a, b: theorem_1_check(a)),
    ("theorem_2", "lpt_diff_hat", "thm2", lambda a, b: theorem_2_check(a, b)),
    ("theorem_3[z=0]", "pitt_hat_0", "thm3", lambda a, b: theorem_3_check(a, b, z=0)),
    ("theorem_3[z=1]", "pitt_hat_1", "thm3", lambda a, b: theorem_3_check(a, b, z=1)),
)


class TheoremVerification(Record):
    name: str
    identity: IdentityReport | None
    error: str | None
    plugin_estimator: str

    @property
    def exact_ok(self) -> bool:
        return self.identity is not None and self.identity.passed


class VerificationReport(JsonReport):
    theorems: tuple[TheoremVerification, ...]
    mc: McSummary | None  # montecarlo's; a string annotation, so never imported here

    @property
    def targets(self) -> dict[str, float]:
        """Each checked identity's plug-in estimator -> that identity's rhs."""
        return {t.plugin_estimator: t.identity.rhs for t in self.theorems
                if t.identity is not None}

    def get(self, name: str) -> TheoremVerification:
        for t in self.theorems:
            if t.name == name:
                return t
        raise KeyError(name)

    def to_text(self) -> str:
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
            plugin = self.mc.get(t.plugin_estimator) if self.mc is not None else None
            if plugin is not None and plugin.std_bias is not None:
                lines.append(
                    f"{'':<17}plug-in {t.plugin_estimator}: mean={plugin.mean:.6g} "
                    f"std_bias_vs_rhs={plugin.std_bias:.3g}"
                )
        return "\n".join(lines)


def verify_theorems(pop: Population, mech_a: Mechanism, mech_b: Mechanism) -> VerificationReport:
    """Exact identity checks for all three identification results; the
    report's ``mc`` is None. The plug-in estimators' Monte Carlo behavior is
    ``montecarlo.replicate(design, R, report.targets)`` of a design of these
    mechanisms, set with ``report.replace(mc=...)``.

    Degenerate cases (zero uptake effect, a block with no compliers) are
    reported inline instead of raising, so negative tests can run end to end.
    Each mechanism's exact kernel is evaluated once and shared by the checks.
    """
    a, b = member_averages(pop, mech_a), member_averages(pop, mech_b)
    theorems = []
    mirror, _ = _ASSUMPTIONS["mirror"]
    for name, plugin, _, check in _THEOREMS:
        if name == "theorem_3[z=1]" and not mirror(pop):  # checked only where it holds
            continue
        try:
            identity, error = check(a, b), None
        except (ZeroEncouragementEffect, EmptyStratumInBlock) as exc:
            identity, error = None, f"{type(exc).__name__}: {exc}"
        theorems.append(TheoremVerification(name, identity, error, plugin))
    return VerificationReport(theorems=tuple(theorems), mc=None)


def verification_passes(report: VerificationReport, expect_fail: set[str] = frozenset()) -> bool:
    """Gate semantics, per --expect-fail flag: every check of a theorem must
    pass, unless its flag is in expect_fail. Then at least one of its checks
    must fail; every check passing is a surprise pass, which also gates."""
    flag_of = {name: flag for name, _, flag, _ in _THEOREMS}
    passed: dict[str, list[bool]] = {}
    for t in report.theorems:
        passed.setdefault(flag_of[t.name], []).append(t.exact_ok)
    return all(all(oks) != (flag in expect_fail) for flag, oks in passed.items())


# --------------------------------------------------------------------------
# Batch report
# --------------------------------------------------------------------------


class EstimandReport(JsonReport):
    entries: dict[str, BlockSummary]
    skipped: dict[str, str]
    metadata: dict

    def to_csv(self) -> str:
        """One row per block and one for the population; a name is quoted
        as the csv module's minimal quoting writes it."""
        lines = ["estimand,block,value"]
        for key in sorted(self.entries):
            s = self.entries[key]
            name = key
            if any(c in key for c in ',"\r\n'):
                name = '"' + key.replace('"', '""') + '"'
            for i, v in enumerate(s.per_block.tolist()):
                lines.append(f"{name},{i},{v!r}")
            lines.append(f"{name},population,{s.population!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"{k:<44}{v.population:>16.8g}" for k, v in self.entries.items()]
        lines += [f"skipped {k}: {v}" for k, v in self.skipped.items()]
        return "\n".join(lines)


def compute_estimand_report(pop: Population, mech_a: Mechanism,
                            mech_b: Mechanism) -> EstimandReport:
    """Evaluate every estimand family for a pair of mechanisms."""
    entries: dict[str, BlockSummary] = {}
    skipped: dict[str, str] = {}
    a, b = member_averages(pop, mech_a), member_averages(pop, mech_b)
    named = ((mech_a.name, a), (mech_b.name, b))
    pair = f"{mech_a.name},{mech_b.name}"

    for name, avg in named:
        for z in (0, 1):
            entries[f"ybar_itt[z={z},mech={name}]"] = _summarize(avg.itt_blocks(z))
        entries[f"ditt[1,0,mech={name}]"] = ditt(avg)
    for z in (0, 1):
        entries[f"pitt[z={z},{pair}]"] = pitt(a, b, z)
    entries["et[1,0]"] = et(pop)

    if pop.exclusion_ok:
        for name, avg in named:
            for d in (0, 1):
                entries[f"ybar_local[d={d},mech={name}]"] = _summarize(avg.local_blocks(d))
        for d in (0, 1):
            entries[f"lpt_all[d={d},{pair}]"] = lpt(a, b, d)
        co = ComplianceType.COMPLIER
        try:
            for name, avg in named:
                for d in (0, 1):
                    entries[f"ybar_local[d={d},mech={name},stratum=complier]"] = (
                        _summarize(avg.local_blocks(d, co))
                    )
                entries[f"ldt[1,0,mech={name},stratum=complier]"] = ldt(avg)
            for d in (0, 1):
                entries[f"lpt[d={d},{pair},stratum=complier]"] = lpt(a, b, d, co)
        except EmptyStratumInBlock as exc:
            skipped["complier_local_effects"] = str(exc)
    else:
        skipped["local_effects"] = "exclusion restriction violated; local averages undefined"

    # the table entries the kernel reads per block: 2^n per plain member, and
    # per keyed member its 2^n encouragement rows at both forced treatments
    sizes = np.diff(pop.starts)
    entries_read = np.add.reduceat(np.where(pop.structural, 0, (1 + pop.z_dependent)
                                            << np.repeat(sizes, sizes)), pop.starts[:-1]).tolist()
    metadata = {
        "mechanisms": {m.name: m.probs for m in (mech_a, mech_b)},
        "flags": {
            "monotone": pop.monotone,
            "one_sided": pop.one_sided,
            "exclusion_ok": pop.exclusion_ok,
        },
        "block_sizes": pop.sizes,
        "evaluation": ["contraction" if r else "moments" for r in entries_read],
        "entries_read": entries_read,
    }
    return EstimandReport(entries=entries, skipped=skipped, metadata=metadata)
