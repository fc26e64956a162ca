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
assembles block means of the kernel's output; a family's population value is
the unweighted mean of its block values.
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


def identity_ok(lhs: float, rhs: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    scale = max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= max(abs_, rel * scale)


def _block_means(pop: Population, values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per-block mean of a per-individual array over the members."""
    firsts = pop.starts[:-1]
    return np.add.reduceat(np.where(members, values, 0), firsts) / np.add.reduceat(members, firsts)


@dataclass(frozen=True)
class _MemberAverages:
    """Each individual's averages under one mechanism, in block order:
    ``itt[z]`` pins the own encouragement at z, ``local[d]`` the own treatment
    at d (averaging the own encouragement for encouragement-keyed tables).
    Read them through ``members``, which refuses what the cap left out."""

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
                allow_exclusion_violation: bool = False, only=None) -> np.ndarray:
        """Mask of the individuals an average covers: a stratum, or individual
        ``only`` = (i, j). Raises for the first block, and its first member,
        where the average is undefined: an empty stratum, a table block beyond
        the enumeration cap, or (local only) an encouragement-keyed table,
        unless allowed and within the cap."""
        pop = self.pop
        firsts, sizes = pop.starts[:-1], np.diff(pop.starts)
        members = pop.in_stratum(stratum)
        if only is not None:
            members = np.arange(members.size) == firsts[only[0]] + range(sizes[only[0]])[only[1]]
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


def _member_averages(pop: Population, mech: Mechanism, cap: int) -> _MemberAverages:
    """The exact kernel: closed-form peer-count moments for structural
    outcomes, one 2^n enumeration per table block within the cap."""
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
    return _MemberAverages(pop=pop, cap=cap, itt=itt, local=local)


def ybar_indiv_itt(
    pop: Population,
    i: int,
    j: int,
    z: int,
    mech: Mechanism,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Average potential outcome with own encouragement pinned at z and the
    peers' encouragements averaged under the mechanism.

    Everyone (self included) takes the treatment induced by their
    encouragement; encouragement-keyed tables are honored, so this average is
    well-defined with or without the exclusion restriction.
    """
    avg = _member_averages(pop, mech, cap)
    return float(avg.itt[z][avg.members(only=(i, j))][0])


def ybar_indiv_local(
    pop: Population,
    i: int,
    j: int,
    d: int,
    mech: Mechanism,
    cap: int = DEFAULT_ENUMERATION_CAP,
    allow_exclusion_violation: bool = False,
) -> float:
    """Average potential outcome with own treatment pinned at d while peers
    take their natural (encouragement-induced) treatments under the mechanism.

    Defined for encouragement-free outcomes. For encouragement-keyed tables
    the quantity has no canonical definition; with
    ``allow_exclusion_violation`` the own encouragement is averaged under the
    mechanism as well (this reduces exactly to the standard definition when
    the table happens not to vary in the encouragements), otherwise
    ExclusionViolated is raised.
    """
    avg = _member_averages(pop, mech, cap)
    return float(avg.local[d][avg.members(None, True, allow_exclusion_violation, (i, j))][0])


# --------------------------------------------------------------------------
# Block and population estimand families
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSummary:
    """Per-block values plus their unweighted population mean."""

    per_block: tuple[float, ...]
    population: float

    def as_dict(self) -> dict:
        return {"per_block": list(self.per_block), "population": self.population}


def _summarize(values) -> BlockSummary:
    vals = tuple(float(v) for v in values)
    return BlockSummary(per_block=vals, population=float(sum(vals) / len(vals)))


def ditt(
    pop: Population, z_hi: int, z_lo: int, mech: Mechanism, cap: int = DEFAULT_ENUMERATION_CAP
) -> BlockSummary:
    """Direct intent-to-treat effect: contrast in own encouragement."""
    if z_hi == z_lo:
        raise ValueError("direct contrast needs two distinct encouragement values")
    avg = _member_averages(pop, mech, cap)
    return _summarize(avg.itt_blocks(z_hi) - avg.itt_blocks(z_lo))


def pitt(
    pop: Population,
    z: int,
    mech_a: Mechanism,
    mech_b: Mechanism,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BlockSummary:
    """Peer intent-to-treat effect: contrast in the peers' mechanism."""
    a = _member_averages(pop, mech_a, cap)
    b = _member_averages(pop, mech_b, cap)
    return _summarize(a.itt_blocks(z) - b.itt_blocks(z))


def et(pop: Population, z_hi: int = 1, z_lo: int = 0) -> BlockSummary:
    """Average effect of encouragement on treatment uptake (mechanism-free)."""
    if z_hi == z_lo:
        raise ValueError("uptake contrast needs two distinct encouragement values")
    hi, lo = (pop.d1 if z_hi else pop.d0), (pop.d1 if z_lo else pop.d0)
    return _summarize(_block_means(pop, hi.astype(np.int64) - lo, pop.in_stratum(None)))


def ldt(
    pop: Population,
    d_hi: int,
    d_lo: int,
    mech: Mechanism,
    stratum: ComplianceType | None = ComplianceType.COMPLIER,
    cap: int = DEFAULT_ENUMERATION_CAP,
    allow_exclusion_violation: bool = False,
) -> BlockSummary:
    """Local direct treatment effect: own treatment pinned, peers natural."""
    if d_hi == d_lo:
        raise ValueError("direct contrast needs two distinct treatment values")
    avg = _member_averages(pop, mech, cap)
    return _summarize(avg.local_blocks(d_hi, stratum, allow_exclusion_violation)
                      - avg.local_blocks(d_lo, stratum, allow_exclusion_violation))


def lpt(
    pop: Population,
    d: int,
    mech_a: Mechanism,
    mech_b: Mechanism,
    stratum: ComplianceType | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    allow_exclusion_violation: bool = False,
) -> BlockSummary:
    """Local peer treatment effect; stratum None averages over everyone."""
    a = _member_averages(pop, mech_a, cap)
    b = _member_averages(pop, mech_b, cap)
    return _summarize(a.local_blocks(d, stratum, allow_exclusion_violation)
                      - b.local_blocks(d, stratum, allow_exclusion_violation))


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    passed: bool
    assumptions_ok: bool
    assumption_notes: tuple[str, ...]
    block_lhs: tuple[float, ...]
    block_rhs: tuple[float, ...]
    note: str | None = None

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs

    @property
    def block_identity_ok(self) -> bool:
        """True when the identity holds block by block wherever defined."""
        pairs = [
            (a, b)
            for a, b in zip(self.block_lhs, self.block_rhs)
            if math.isfinite(a) and math.isfinite(b)
        ]
        return bool(pairs) and all(identity_ok(a, b) for a, b in pairs)

    def as_dict(self) -> dict:
        clean = lambda xs: [x if math.isfinite(x) else None for x in xs]  # noqa: E731
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "passed": self.passed,
            "block_identity_ok": self.block_identity_ok,
            "assumptions_ok": self.assumptions_ok,
            "assumption_notes": list(self.assumption_notes),
            "note": self.note,
            "block_lhs": clean(self.block_lhs),
            "block_rhs": clean(self.block_rhs),
        }


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
    uptake = et(pop, 1, 0)
    if uptake.population == 0.0:
        raise ZeroEncouragementEffect("population uptake effect is zero; ratio undefined")
    return uptake


def _identity(name: str, lhs: float, rhs: float, block_lhs, block_rhs, notes,
              note: str | None = None) -> IdentityReport:
    return IdentityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        passed=identity_ok(lhs, rhs),
        assumptions_ok=not notes,
        assumption_notes=notes,
        block_lhs=tuple(float(x) for x in block_lhs),
        block_rhs=tuple(float(x) for x in block_rhs),
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


def theorem_1_check(
    pop: Population, mech: Mechanism, cap: int = DEFAULT_ENUMERATION_CAP
) -> IdentityReport:
    """Ratio identification of the complier local direct effect.

    lhs: population direct ITT effect over the population uptake effect.
    rhs: complier local direct treatment effect.
    Also reports the block-level ratio identity, which is what the averaging
    argument actually delivers; the population ratio coincides with it when
    every block has the same uptake effect. Runs regardless of assumption
    flags so violations can be demonstrated, and reports their status.
    """
    uptake = _ratio_denominator(pop)
    avg = _member_averages(pop, mech, cap)
    direct = _summarize(avg.itt_blocks(1) - avg.itt_blocks(0))
    local = _summarize(avg.local_blocks(1, ComplianceType.COMPLIER, True)
                       - avg.local_blocks(0, ComplianceType.COMPLIER, True))
    return _ratio_identity("theorem_1", pop, uptake, direct, local)


def theorem_2_check(
    pop: Population,
    mech_a: Mechanism,
    mech_b: Mechanism,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> IdentityReport:
    """Ratio identification of the complier local peer effect difference.

    lhs: (peer ITT at z=1 minus peer ITT at z=0) over the uptake effect.
    rhs: complier local peer effect at d=1 minus at d=0.
    Same block-level vs population-level caveat as theorem_1_check.
    """
    uptake = _ratio_denominator(pop)
    a = _member_averages(pop, mech_a, cap)
    b = _member_averages(pop, mech_b, cap)
    co = ComplianceType.COMPLIER
    peer_itt = [a.itt_blocks(z) - b.itt_blocks(z) for z in (0, 1)]
    peer_local = [a.local_blocks(d, co, True) - b.local_blocks(d, co, True) for d in (0, 1)]
    return _ratio_identity("theorem_2", pop, uptake, _summarize(peer_itt[1] - peer_itt[0]),
                           _summarize(peer_local[1] - peer_local[0]))


def theorem_3_check(
    pop: Population,
    mech_a: Mechanism,
    mech_b: Mechanism,
    z: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> IdentityReport:
    """Peer ITT equals the everyone local peer effect at the pinned arm.

    z=0 needs one-sided compliance (nobody treated unencouraged); z=1 is the
    mirror variant (everyone encouraged takes treatment). Holds block by
    block, hence at the population level with no ratio involved.
    """
    a = _member_averages(pop, mech_a, cap)
    b = _member_averages(pop, mech_b, cap)
    p = _summarize(a.itt_blocks(z) - b.itt_blocks(z))
    l = _summarize(a.local_blocks(z, None, True) - b.local_blocks(z, None, True))
    notes = _assumption_notes(
        pop,
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

    def to_dict(self) -> dict:
        return {
            "entries": {k: v.as_dict() for k, v in self.entries.items()},
            "skipped": dict(self.skipped),
            "metadata": self.metadata,
        }

    def to_csv(self) -> str:
        lines = ["estimand,block,value"]
        for key in sorted(self.entries):
            s = self.entries[key]
            for i, v in enumerate(s.per_block):
                lines.append(f"{key},{i},{v!r}")
            lines.append(f"{key},population,{s.population!r}")
        return "\n".join(lines) + "\n"


def compute_estimand_report(
    pop: Population,
    mech_a: Mechanism,
    mech_b: Mechanism,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> EstimandReport:
    """Evaluate every estimand family for a pair of mechanisms."""
    entries: dict[str, BlockSummary] = {}
    skipped: dict[str, str] = {}
    a = _member_averages(pop, mech_a, cap)
    b = _member_averages(pop, mech_b, cap)
    named = ((mech_a.name, a), (mech_b.name, b))
    pair = f"{mech_a.name},{mech_b.name}"

    for name, avg in named:
        for z in (0, 1):
            entries[f"ybar_itt[z={z},mech={name}]"] = _summarize(avg.itt_blocks(z))
        entries[f"ditt[1,0,mech={name}]"] = _summarize(avg.itt_blocks(1) - avg.itt_blocks(0))
    for z in (0, 1):
        entries[f"pitt[z={z},{pair}]"] = _summarize(a.itt_blocks(z) - b.itt_blocks(z))
    entries["et[1,0]"] = et(pop, 1, 0)

    if pop.exclusion_ok:
        for name, avg in named:
            for d in (0, 1):
                entries[f"ybar_local[d={d},mech={name}]"] = _summarize(avg.local_blocks(d))
        for d in (0, 1):
            entries[f"lpt_all[d={d},{pair}]"] = _summarize(a.local_blocks(d) - b.local_blocks(d))
        co = ComplianceType.COMPLIER
        try:
            for name, avg in named:
                local = [avg.local_blocks(d, co) for d in (0, 1)]
                for d in (0, 1):
                    entries[f"ybar_local[d={d},mech={name},stratum=complier]"] = (
                        _summarize(local[d])
                    )
                entries[f"ldt[1,0,mech={name},stratum=complier]"] = _summarize(local[1] - local[0])
            for d in (0, 1):
                entries[f"lpt[d={d},{pair},stratum=complier]"] = _summarize(
                    a.local_blocks(d, co) - b.local_blocks(d, co)
                )
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
