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
route per outcome representation. Structural outcomes are quadratic in the
treated-peer count K, so they need only E[K] and Var[K]: sums of q and
q(1-q) over the peers' effective uptake probabilities q (always-takers 1,
never-takers 0, compliers their encouragement probability, defiers its
complement). Tables are averaged over one enumeration of their block's 2^n
encouragement vectors. The test suite cross-checks the routes. Every family
and identity check takes kernel results (``member_averages``), so a caller
evaluates the kernel once per mechanism; each assembles block means of the
kernel's output, and a family's population value is the unweighted mean of
its block values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._report import JsonReport
from .errors import (
    EmptyStratumInBlock,
    EnumerationTooLarge,
    ExclusionViolated,
    ZeroEncouragementEffect,
)
from .mechanisms import DEFAULT_ENUMERATION_CAP, Mechanism, assignment_probs
from .population import ComplianceType, Population, pack_rows

# A computed identity passes when |lhs-rhs| <= max(ABS_TOL, REL_TOL*scale):
# all quantities are short sums of products of probabilities, so double
# precision keeps genuine identities far inside these margins.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def identity_ok(lhs: float, rhs: float) -> bool:
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= max(ABS_TOL, REL_TOL * scale)


def _block_means(pop: Population, values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per-block mean of a per-individual array over the members."""
    firsts = pop.starts[:-1]
    return np.add.reduceat(np.where(members, values, 0), firsts) / np.add.reduceat(members, firsts)


@dataclass(frozen=True)
class MemberAverages:
    """Each individual's averages under one mechanism, in block order:
    ``itt[z]`` pins the own encouragement at z, ``local[d]`` the own treatment
    at d (averaging the own encouragement for encouragement-keyed tables).
    Read them through ``members``, which refuses what the cap left out. The
    arrays are read-only: one kernel is shared by every family and check."""

    pop: Population
    cap: int
    itt: np.ndarray  # (2, N)
    local: np.ndarray  # (2, N)

    def itt_blocks(self, z: int) -> np.ndarray:
        return _block_means(self.pop, self.itt[z], self.members())

    def local_blocks(self, d: int, stratum: ComplianceType | None = None,
                     allow_exclusion_violation: bool = False) -> np.ndarray:
        members = self.members(stratum, True, allow_exclusion_violation)
        return _block_means(self.pop, self.local[d], members)

    def members(self, stratum: ComplianceType | None = None, local: bool = False,
                allow_exclusion_violation: bool = False) -> np.ndarray:
        """Mask of the individuals in a stratum (everyone for None). Raises
        for the first block, and its first member, where the average is
        undefined: an empty stratum, a table block beyond the enumeration
        cap, or (local only) an encouragement-keyed table, unless allowed and
        within the cap."""
        pop = self.pop
        firsts, sizes = pop.starts[:-1], np.diff(pop.starts)
        members = pop.in_stratum(stratum)
        n = np.repeat(sizes, sizes)
        bad = members & np.where(local & pop.z_dependent,
                                 (not allow_exclusion_violation) | (n > self.cap),
                                 ~pop.structural & (n - 1 > self.cap))
        empty = (np.add.reduceat(members, firsts) == 0) & (stratum is not None)
        blocks = np.flatnonzero(empty | (np.add.reduceat(bad, firsts) > 0))
        if blocks.size == 0:
            return members
        i = int(blocks[0])
        j = int(np.argmax(bad[firsts[i]:firsts[i] + sizes[i]]))
        if empty[i]:
            raise EmptyStratumInBlock(f"block {i} has no {stratum.value} individuals")
        if not (local and pop.z_dependent[firsts[i] + j]):
            raise EnumerationTooLarge(
                f"block {i}: 2^{sizes[i] - 1} peer assignments exceed cap 2^{self.cap}")
        if not allow_exclusion_violation:
            raise ExclusionViolated(f"block {i} individual {j}: outcome depends on encouragements")
        raise EnumerationTooLarge(f"block {i}: 2^{sizes[i]} assignments exceed cap 2^{self.cap}")


def member_averages(pop: Population, mech: Mechanism,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> MemberAverages:
    """The exact kernel: closed-form peer-count moments for structural
    outcomes, one 2^n enumeration per table block within the cap. Evaluate
    it once per mechanism and pass the result to every family and check."""
    firsts, sizes = pop.starts[:-1], np.diff(pop.starts)
    p = np.concatenate([mech.marginals(n) for n in pop.sizes])
    q = np.where(pop.d0 == pop.d1, pop.d0, np.where(pop.d1 == 1, p, 1.0 - p))
    mean = np.repeat(np.add.reduceat(q, firsts), sizes) - q
    var = np.repeat(np.add.reduceat(q * (1.0 - q), firsts), sizes) - q * (1.0 - q)
    c0, c_dir, c_peer, c_inter, c_curv, c_noise = pop.coef
    local = np.where(pop.structural, [
        c0 + c_dir * d + (c_peer + c_inter * d) * mean + c_curv * (var + mean * mean) + c_noise
        for d in (0, 1)
    ], np.nan)
    itt = np.where(np.stack([pop.d0, pop.d1]) == 1, local[1], local[0])
    for i in np.flatnonzero((np.add.reduceat(~pop.structural, firsts) > 0) & (sizes - 1 <= cap)):
        block, n = slice(firsts[i], firsts[i] + sizes[i]), int(sizes[i])
        # the cap bounds the 2^(n-1) peer assignments; the own column doubles them
        w = assignment_probs(mech, n, cap=cap + 1)
        z = np.arange(w.size)  # row r is the bit-packed encouragement vector r
        d = (z & pack_rows(pop.d1[block])) | (~z & pack_rows(pop.d0[block]))
        bit = (1 << np.arange(n - 1, -1, -1))[:, None]  # each member's own bit
        v = np.arange(2)[:, None, None]
        # itt[v] pins the own encouragement at v, so the own treatment at its
        # d_v; local[v] pins the own treatment at v and keeps the drawn z
        own_d = np.stack([pop.d0[block], pop.d1[block]])[:, :, None]
        d_rows = d & ~bit | np.concatenate([own_d, np.broadcast_to(v, own_d.shape)]) * bit
        z_rows = np.concatenate([z & ~bit | v * bit, np.broadcast_to(z, (2, n, z.size))])
        vals = pop.table_values(i, d_rows, z_rows) @ w
        table = ~pop.structural[block]
        itt[:, block] = np.where(table, vals[:2], itt[:, block])
        local[:, block] = np.where(table, vals[2:], local[:, block])
    itt.setflags(write=False)
    local.setflags(write=False)
    return MemberAverages(pop=pop, cap=cap, itt=itt, local=local)


# --------------------------------------------------------------------------
# Block and population estimand families
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSummary:
    """Per-block values plus their unweighted population mean."""

    per_block: tuple[float, ...]
    population: float


def _summarize(values) -> BlockSummary:
    vals = tuple(float(v) for v in values)
    return BlockSummary(per_block=vals, population=float(sum(vals) / len(vals)))


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


def ldt(
    avg: MemberAverages,
    stratum: ComplianceType | None = ComplianceType.COMPLIER,
    allow_exclusion_violation: bool = False,
) -> BlockSummary:
    """Local direct treatment effect: own treatment 1 against 0, peers natural."""
    return _summarize(avg.local_blocks(1, stratum, allow_exclusion_violation)
                      - avg.local_blocks(0, stratum, allow_exclusion_violation))


def lpt(
    a: MemberAverages,
    b: MemberAverages,
    d: int,
    stratum: ComplianceType | None = None,
    allow_exclusion_violation: bool = False,
) -> BlockSummary:
    """Local peer treatment effect; stratum None averages over everyone."""
    _same_population(a, b)
    return _summarize(a.local_blocks(d, stratum, allow_exclusion_violation)
                      - b.local_blocks(d, stratum, allow_exclusion_violation))


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport(JsonReport):
    name: str
    lhs: float
    rhs: float
    gap: float  # lhs - rhs
    passed: bool
    block_identity_ok: bool  # the identity holds block by block wherever defined
    assumptions_ok: bool
    assumption_notes: tuple[str, ...]
    block_lhs: tuple[float, ...]
    block_rhs: tuple[float, ...]
    note: str | None = None


def _assumption_notes(pop: Population, require_monotone=False, require_exclusion=False,
                      require_one_sided=False, require_all_encouraged_take=False):
    notes = []
    if require_monotone and not pop.monotone:
        notes.append("monotonicity violated: defiers present")
    if require_exclusion and not pop.exclusion_ok:
        notes.append("exclusion restriction violated: encouragement-dependent outcomes")
    if require_one_sided and not pop.one_sided:
        notes.append("one-sided compliance violated: someone takes treatment unencouraged")
    if require_all_encouraged_take and not pop.d1.all():
        notes.append("mirror condition violated: someone declines treatment when encouraged")
    return tuple(notes)


def _aggregation_note(uptake: BlockSummary) -> str | None:
    if len(set(uptake.per_block)) > 1:
        return (
            "blocks have unequal uptake effects, so the block-level ratio "
            "identity does not aggregate to this population-level ratio"
        )
    return None


def _ratio_denominator(pop: Population) -> BlockSummary:
    uptake = et(pop)
    if uptake.population == 0.0:
        raise ZeroEncouragementEffect("population uptake effect is zero; ratio undefined")
    return uptake


def _identity(name: str, lhs: float, rhs: float, block_lhs, block_rhs, notes,
              note: str | None = None) -> IdentityReport:
    block_lhs, block_rhs = tuple(map(float, block_lhs)), tuple(map(float, block_rhs))
    pairs = [(a, b) for a, b in zip(block_lhs, block_rhs) if math.isfinite(a) and math.isfinite(b)]
    return IdentityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        gap=lhs - rhs,
        passed=identity_ok(lhs, rhs),
        block_identity_ok=bool(pairs) and all(identity_ok(a, b) for a, b in pairs),
        assumptions_ok=not notes,
        assumption_notes=notes,
        block_lhs=block_lhs,
        block_rhs=block_rhs,
        note=note,
    )


def _ratio_identity(name: str, pop: Population, uptake: BlockSummary, itt: BlockSummary,
                    local: BlockSummary) -> IdentityReport:
    """An ITT contrast over the uptake effect against a complier local
    contrast, in the population and block by block (NaN where a block's
    uptake effect is zero)."""
    e = np.array(uptake.per_block)
    block_lhs = np.divide(itt.per_block, e, out=np.full(e.size, np.nan), where=e != 0.0)
    notes = _assumption_notes(pop, require_monotone=True, require_exclusion=True)
    return _identity(name, itt.population / uptake.population, local.population, block_lhs,
                     local.per_block, notes, _aggregation_note(uptake))


def _difference(hi: BlockSummary, lo: BlockSummary) -> BlockSummary:
    """hi minus lo, block by block."""
    return _summarize(np.subtract(hi.per_block, lo.per_block))


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
    return _ratio_identity("theorem_1", avg.pop, uptake, ditt(avg),
                           ldt(avg, ComplianceType.COMPLIER, True))


def theorem_2_check(a: MemberAverages, b: MemberAverages) -> IdentityReport:
    """Ratio identification of the complier local peer effect difference.

    lhs: (peer ITT at z=1 minus peer ITT at z=0) over the uptake effect.
    rhs: complier local peer effect at d=1 minus at d=0.
    Same block-level vs population-level caveat as theorem_1_check.
    """
    uptake = _ratio_denominator(a.pop)
    peer_itt = [pitt(a, b, z) for z in (0, 1)]
    peer_local = [lpt(a, b, d, ComplianceType.COMPLIER, True) for d in (0, 1)]
    return _ratio_identity("theorem_2", a.pop, uptake, _difference(peer_itt[1], peer_itt[0]),
                           _difference(peer_local[1], peer_local[0]))


def theorem_3_check(a: MemberAverages, b: MemberAverages, z: int = 0) -> IdentityReport:
    """Peer ITT equals the everyone local peer effect at the pinned arm.

    z=0 needs one-sided compliance (nobody treated unencouraged); z=1 is the
    mirror variant (everyone encouraged takes treatment). Holds block by
    block, hence at the population level with no ratio involved.
    """
    p = pitt(a, b, z)
    l = lpt(a, b, z, None, True)
    notes = _assumption_notes(
        a.pop,
        require_exclusion=True,
        require_one_sided=(z == 0),
        require_all_encouraged_take=(z == 1),
    )
    return _identity(f"theorem_3[z={z}]", p.population, l.population, p.per_block,
                     l.per_block, notes)


# --------------------------------------------------------------------------
# Batch report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimandReport(JsonReport):
    entries: dict[str, BlockSummary]
    skipped: dict[str, str]
    metadata: dict

    def to_csv(self) -> str:
        lines = ["estimand,block,value"]
        for key in sorted(self.entries):
            s = self.entries[key]
            for i, v in enumerate(s.per_block):
                lines.append(f"{key},{i},{v!r}")
            lines.append(f"{key},population,{s.population!r}")
        return "\n".join(lines) + "\n"


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

    uses_tables = np.add.reduceat(~pop.structural, pop.starts[:-1]) > 0
    metadata = {
        "mechanisms": {m.name: m.probs if isinstance(m.probs, float) else list(m.probs)
                       for m in (mech_a, mech_b)},
        "flags": {
            "monotone": pop.monotone,
            "one_sided": pop.one_sided,
            "exclusion_ok": pop.exclusion_ok,
        },
        "block_sizes": list(pop.sizes),
        "evaluation": [
            "enumeration" if t else "moments" for t in uses_tables
        ],
        # assignment rows the kernel visited per block: one enumeration of
        # all 2^n for a block holding a table, none for closed-form moments
        "enumeration_sizes": [
            2**n if t else 0 for n, t in zip(pop.sizes, uses_tables)
        ],
    }
    return EstimandReport(entries=entries, skipped=skipped, metadata=metadata)
