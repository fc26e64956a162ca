"""Finite populations of blocks whose individuals carry fully specified
potential treatments and potential outcomes.

An individual owns a pair of potential treatments (what they take when
unencouraged / encouraged; uptake depends on nobody else's encouragement by
construction) and a potential-outcome function over the block's treatment
vector. Two outcome representations are supported:

* structural: outcome depends on own treatment and the *count* of treated
  peers (anonymous in peers, hence independent of encouragements);
* table: an explicit value for every block treatment vector, optionally
  keyed by the encouragement vector as well. Encouragement-keyed tables
  violate the exclusion restriction by construction and mark the population
  accordingly.

Populations are immutable once built; all randomness used to build one is
frozen at build time, so everything downstream is a deterministic function
of the population and the design's own random streams.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, field, fields
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    ArityMismatch,
    FlagMismatch,
    GenerationFailed,
    InvalidConfig,
    MissingTableEntry,
    PeerEncError,
)

# Dense tables hold 2^n entries per individual; refuse silly sizes.
TABLE_REPRESENTATION_CAP = 12


class ComplianceType(Enum):
    ALWAYS_TAKER = "always_taker"
    COMPLIER = "complier"
    NEVER_TAKER = "never_taker"
    DEFIER = "defier"


@dataclass(frozen=True)
class PotentialTreatment:
    """Treatment taken when unencouraged (d0) and when encouraged (d1)."""

    d0: int
    d1: int

    def __post_init__(self):
        if self.d0 not in (0, 1) or self.d1 not in (0, 1):
            raise ValueError(f"potential treatments must be binary, got ({self.d0}, {self.d1})")

    def take(self, z: int) -> int:
        return self.d1 if z else self.d0


_PT_BY_STRATUM = {
    ComplianceType.ALWAYS_TAKER: PotentialTreatment(1, 1),
    ComplianceType.COMPLIER: PotentialTreatment(0, 1),
    ComplianceType.NEVER_TAKER: PotentialTreatment(0, 0),
    ComplianceType.DEFIER: PotentialTreatment(1, 0),
}
_STRATUM_BY_PT = {pt: ct for ct, pt in _PT_BY_STRATUM.items()}


def classify(pt: PotentialTreatment) -> ComplianceType:
    """Compliance stratum of a (d0, d1) pair."""
    return _STRATUM_BY_PT[pt]


@dataclass(frozen=True)
class StructuralOutcome:
    """Outcome as a function of own treatment and the treated-peer count.

    value(d, k) = intercept + direct*d + peer*k + interaction*d*k
                + curvature*k^2 + noise

    ``noise`` is the individual shock, drawn once when the population is
    built and frozen thereafter. Depending on peers only through their
    treated count makes the outcome anonymous in peers and independent of
    encouragements.
    """

    intercept: float = 0.0
    direct: float = 0.0
    peer: float = 0.0
    interaction: float = 0.0
    curvature: float = 0.0
    noise: float = 0.0

    def value(self, own_d: int, treated_peers: int) -> float:
        return structural_value(astuple(self), own_d, treated_peers)


_COEFS = tuple(f.name for f in fields(StructuralOutcome))


def structural_value(coef, own_d, k):
    """The structural outcome formula, elementwise over arrays: ``coef`` holds
    the StructuralOutcome fields in order. The only evaluation of the formula
    at a treated-peer count, so realized outcomes equal ``value`` bit for bit."""
    intercept, direct, peer, interaction, curvature, noise = coef
    return (intercept + direct * own_d + peer * k + interaction * own_d * k
            + curvature * k * k + noise)


def pack_rows(bits) -> np.ndarray:
    """Bit-pack binary vectors along the last axis, most significant bit
    first (index 0): the row of a table or of an assignment enumeration."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64))


@dataclass(frozen=True)
class TableOutcome:
    """Explicit potential-outcome table over a block's treatment vector.

    ``values`` is indexed by the bit-packed treatment vector. When
    ``z_values`` is present the outcome additionally depends on the
    encouragement vector (second index), which violates the exclusion
    restriction by construction.
    """

    n: int
    values: np.ndarray | None = None
    z_values: np.ndarray | None = None

    def __post_init__(self):
        size = 2**self.n
        if (self.values is None) == (self.z_values is None):
            raise ValueError("exactly one of values / z_values must be given")
        if self.values is not None:
            arr = np.asarray(self.values, dtype=float)
            if arr.shape != (size,):
                raise ArityMismatch(f"table for n={self.n} needs shape ({size},), got {arr.shape}")
        else:
            arr = np.asarray(self.z_values, dtype=float)
            if arr.shape != (size, size):
                raise ArityMismatch(
                    f"encouragement-keyed table for n={self.n} needs shape ({size}, {size}),"
                    f" got {arr.shape}"
                )
        if np.isnan(arr).any():
            raise MissingTableEntry(f"table has {int(np.isnan(arr).sum())} missing entries")
        if not np.isfinite(arr).all():
            raise ValueError("table entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values" if self.values is not None else "z_values", arr)

    @property
    def z_dependent(self) -> bool:
        return self.z_values is not None


OutcomeFunction = StructuralOutcome | TableOutcome


@dataclass(frozen=True)
class Individual:
    pt: PotentialTreatment
    y: OutcomeFunction


@dataclass(frozen=True)
class Population:
    """Ordered blocks of individuals plus compliance-structure flags.

    Flags are claims about the data and are validated, never assumed:
    ``monotone`` means no defiers anywhere, ``one_sided`` means nobody can
    take treatment unencouraged (d0 = 0 for all), ``exclusion_ok`` means no
    outcome depends on encouragements.
    """

    blocks: tuple[tuple[Individual, ...], ...]
    monotone: bool
    one_sided: bool
    exclusion_ok: bool

    def __post_init__(self):
        if len(self.blocks) < 2:
            raise ValueError(f"population needs at least 2 blocks, got {len(self.blocks)}")
        for i, block in enumerate(self.blocks):
            if len(block) < 1:
                raise ValueError(f"block {i} is empty")
            for j, ind in enumerate(block):
                if isinstance(ind.y, TableOutcome) and ind.y.n != len(block):
                    raise ArityMismatch(
                        f"block {i} individual {j}: table arity {ind.y.n} != block size {len(block)}"
                    )

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def n_individuals(self) -> int:
        return sum(self.sizes)

    @cached_property
    def columns(self) -> Columns:
        """Struct-of-arrays view of the individuals, built on first use."""
        inds = [ind for block in self.blocks for ind in block]
        tables = [isinstance(ind.y, TableOutcome) for ind in inds]
        cols = Columns(
            starts=np.cumsum((0,) + self.sizes),
            d0=np.array([ind.pt.d0 for ind in inds], dtype=np.uint8),
            d1=np.array([ind.pt.d1 for ind in inds], dtype=np.uint8),
            structural=~np.array(tables),
            z_dependent=np.array([t and ind.y.z_dependent for t, ind in zip(tables, inds)]),
            coef=np.array([[getattr(ind.y, k, 0.0) for k in _COEFS] for ind in inds]).T,
            tables=tuple(_stack_tables(block) for block in self.blocks),
        )
        for arr in (*(getattr(cols, f.name) for f in fields(cols)), *cols.tables):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        return cols


def _stack_tables(block) -> np.ndarray | None:
    """A block's tables as one [member, d row, z row] array, or None when it
    holds none. The z axis has length 1 unless a member is encouragement-keyed;
    structural members' rows are zero."""
    ys = {j: ind.y for j, ind in enumerate(block) if isinstance(ind.y, TableOutcome)}
    if not ys:
        return None
    n = len(block)
    out = np.zeros((n, 2**n, 2**n if any(y.z_dependent for y in ys.values()) else 1))
    for j, y in ys.items():
        out[j] = y.z_values if y.z_dependent else y.values[:, None]
    return out


@dataclass(frozen=True)
class Columns:
    """A population's individuals as flat arrays in block order; block i owns
    starts[i]:starts[i + 1]. ``coef`` rows are the StructuralOutcome fields
    in order (intercept, direct, peer, interaction, curvature, noise), zero
    for tables. ``table_values`` and ``outcomes`` are the one outcome lookup."""

    starts: np.ndarray  # (B + 1,) block offsets
    d0: np.ndarray  # (N,) treatment when unencouraged
    d1: np.ndarray  # (N,) treatment when encouraged
    structural: np.ndarray  # (N,) structural outcome (else a table)
    z_dependent: np.ndarray  # (N,) encouragement-keyed table
    coef: np.ndarray  # (6, N)
    tables: tuple[np.ndarray | None, ...]  # per block: [member, d row, z row], or None

    def in_stratum(self, stratum: ComplianceType | None) -> np.ndarray:
        """Mask of the individuals in a compliance stratum (everyone for None)."""
        if stratum is None:
            return np.ones(self.d0.size, dtype=bool)
        pt = _PT_BY_STRATUM[stratum]
        return (self.d0 == pt.d0) & (self.d1 == pt.d1)

    def table_values(self, i: int, d_rows, z_rows) -> np.ndarray:
        """Block i's table entries: result[..., j, r] is member j's entry at
        the bit-packed rows d_rows[..., j, r] and z_rows[..., j, r], which
        broadcast against a (members, 1) axis. The z rows are ignored unless
        the block holds an encouragement-keyed table."""
        table = self.tables[i]
        members = np.arange(table.shape[0])[:, None]
        return table[members, d_rows, z_rows if table.shape[2] > 1 else 0]

    def outcomes(self, d: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Every individual's outcome at the realized block treatment vectors
        d and encouragement vectors z (flat, block order)."""
        k = np.repeat(np.add.reduceat(d, self.starts[:-1], dtype=np.int64), np.diff(self.starts))
        y = structural_value(self.coef, d.astype(float), (k - d).astype(float))
        for i in np.flatnonzero([t is not None for t in self.tables]):
            block = slice(self.starts[i], self.starts[i + 1])
            rows = self.table_values(i, pack_rows(d[block])[None], pack_rows(z[block])[None])
            y[block] = np.where(self.structural[block], y[block], rows[:, 0])
        return y


def outcome(pop: Population, i: int, j: int, d_vec, z_vec=None) -> float:
    """Potential outcome of individual (i, j) under a block treatment vector.

    ``z_vec`` is consulted only by encouragement-keyed tables; for every
    exclusion-compliant individual the result is independent of it.
    """
    cols = pop.columns
    i = range(pop.n_blocks)[i]
    n = pop.sizes[i]
    if len(d_vec) != n:
        raise ArityMismatch(f"treatment vector length {len(d_vec)} != block size {n}")
    j = range(n)[j]
    u = cols.starts[i] + j
    if cols.structural[u]:
        own = int(d_vec[j])
        return float(structural_value(cols.coef[:, u], own, int(np.sum(d_vec)) - own))
    if cols.z_dependent[u] and (z_vec is None or len(z_vec) != n):
        raise ArityMismatch(f"encouragement-keyed table needs a length-{n} encouragement vector")
    z_row = pack_rows(z_vec) if cols.z_dependent[u] else 0
    return float(cols.table_values(i, pack_rows(d_vec), z_row)[j, 0])


@dataclass(frozen=True)
class BlockValidation:
    index: int
    size: int
    strata: dict[ComplianceType, int]
    monotone: bool
    one_sided: bool
    encouragement_effect: float
    has_complier: bool


@dataclass(frozen=True)
class ValidationReport:
    blocks: tuple[BlockValidation, ...]
    monotone: bool
    one_sided: bool
    exclusion_ok: bool
    warnings: tuple[str, ...]

    def summary_lines(self) -> list[str]:
        lines = [
            f"blocks={len(self.blocks)} individuals={sum(b.size for b in self.blocks)} "
            f"monotone={self.monotone} one_sided={self.one_sided} exclusion_ok={self.exclusion_ok}"
        ]
        for b in self.blocks:
            strata = " ".join(f"{ct.value}={n}" for ct, n in b.strata.items() if n)
            lines.append(
                f"  block {b.index}: n={b.size} effect_on_uptake={b.encouragement_effect:+.4f} {strata}"
            )
        lines.extend(f"  warning: {w}" for w in self.warnings)
        return lines


def validate(pop: Population) -> ValidationReport:
    """Check every flag against the individual-level data.

    Raises FlagMismatch when a declared flag contradicts what the data
    actually satisfy (in either direction); otherwise returns the per-block
    findings, warning about blocks where the encouragement moves nobody's
    uptake (ratio identities are undefined there).
    """
    cols = pop.columns
    firsts = cols.starts[:-1]
    counts = {ct: np.add.reduceat(cols.in_stratum(ct), firsts) for ct in ComplianceType}
    sizes = pop.sizes
    effects = np.add.reduceat(cols.d1.astype(np.int64) - cols.d0, firsts) / sizes
    one_sided = np.add.reduceat(cols.d0, firsts) == 0
    block_reports = [
        BlockValidation(
            index=i,
            size=sizes[i],
            strata={ct: int(c[i]) for ct, c in counts.items()},
            monotone=bool(counts[ComplianceType.DEFIER][i] == 0),
            one_sided=bool(one_sided[i]),
            encouragement_effect=float(effects[i]),
            has_complier=bool(counts[ComplianceType.COMPLIER][i] > 0),
        )
        for i in range(len(sizes))
    ]
    warnings = [f"EncouragementIneffective: block {i} has zero effect on uptake"
                for i in np.flatnonzero(effects == 0.0)]

    found_monotone = all(b.monotone for b in block_reports)
    found_one_sided = all(b.one_sided for b in block_reports)
    found_exclusion = not pop.columns.z_dependent.any()
    for flag, found, label in (
        (pop.monotone, found_monotone, "monotone"),
        (pop.one_sided, found_one_sided, "one_sided"),
        (pop.exclusion_ok, found_exclusion, "exclusion_ok"),
    ):
        if flag != found:
            raise FlagMismatch(f"flag {label}={flag} but the data say {found}")

    return ValidationReport(
        blocks=tuple(block_reports),
        monotone=found_monotone,
        one_sided=found_one_sided,
        exclusion_ok=found_exclusion,
        warnings=tuple(warnings),
    )


# --------------------------------------------------------------------------
# Synthetic data-generating process
# --------------------------------------------------------------------------

_STRATA_ORDER = (
    ComplianceType.ALWAYS_TAKER,
    ComplianceType.COMPLIER,
    ComplianceType.NEVER_TAKER,
    ComplianceType.DEFIER,
)
ParamSpec = float | tuple[float, float]  # constant, or (mean, sd) drawn per individual


@dataclass(frozen=True)
class OutcomeConfig:
    """Outcome model for the synthetic DGP.

    Coefficients may be constants or (mean, sd) pairs drawn once per
    individual. representation picks how the outcome is stored: "structural",
    "table" (the same function materialized as an explicit table), or
    "mixed" (per-block coin flip between the two). Nonzero z_own / z_peer add
    encouragement terms y += z_own*own_z + z_peer*(encouraged peers), forcing
    table representation and breaking the exclusion restriction on purpose.
    """

    representation: str = "structural"
    intercept: ParamSpec = 0.0
    direct: ParamSpec = 0.0
    peer: ParamSpec = 0.0
    interaction: ParamSpec = 0.0
    curvature: ParamSpec = 0.0
    noise_sd: float = 0.0
    z_own: float = 0.0
    z_peer: float = 0.0


@dataclass(frozen=True)
class DgpConfig:
    blocks: int
    block_size: int | tuple[int, int]
    strata: tuple[float, float, float, float]  # (always, complier, never, defier)
    outcome: OutcomeConfig = field(default_factory=OutcomeConfig)
    monotone: bool | None = None  # requested guarantee, not a prediction
    one_sided: bool | None = None
    complier_floor: bool = True


def _check_config(cfg: DgpConfig):
    if cfg.blocks < 2:
        raise InvalidConfig(f"need at least 2 blocks, got {cfg.blocks}")
    sizes = cfg.block_size if isinstance(cfg.block_size, tuple) else (cfg.block_size, cfg.block_size)
    if sizes[0] < 1 or sizes[1] < sizes[0]:
        raise InvalidConfig(f"bad block size range {cfg.block_size}")
    s = cfg.strata
    if len(s) != 4 or any(p < 0 for p in s) or abs(sum(s) - 1.0) > 1e-9:
        raise InvalidConfig(f"strata probabilities must be nonnegative and sum to 1, got {s}")
    at, co, nt, de = s
    if cfg.monotone and de > 0:
        raise InvalidConfig("monotone requested but defier mass is positive")
    if cfg.one_sided and (de > 0 or at > 0):
        raise InvalidConfig("one_sided requested but always-taker or defier mass is positive")
    rep = cfg.outcome.representation
    if rep not in ("structural", "table", "mixed"):
        raise InvalidConfig(f"unknown outcome representation {rep!r}")
    z_dep = cfg.outcome.z_own != 0.0 or cfg.outcome.z_peer != 0.0
    if z_dep and rep != "table":
        raise InvalidConfig("encouragement-dependent outcomes require table representation")
    if rep in ("table", "mixed") and sizes[1] > TABLE_REPRESENTATION_CAP:
        raise InvalidConfig(
            f"table representation is capped at block size {TABLE_REPRESENTATION_CAP}"
        )
    if cfg.complier_floor and co == 0.0:
        raise GenerationFailed("complier floor requested but complier mass is zero")


def _draw_param(spec: ParamSpec, rng: np.random.Generator) -> float:
    if isinstance(spec, tuple):
        mean, sd = spec
        return float(rng.normal(mean, sd))
    return float(spec)


def _draw_strata(n: int, probs, complier_floor: bool, rng: np.random.Generator):
    for _ in range(100):
        codes = rng.choice(4, size=n, p=probs)
        if not complier_floor or (codes == 1).any():
            return codes
    # complier mass is positive (checked above) but unlucky: place one directly
    codes = rng.choice(4, size=n, p=probs)
    codes[rng.integers(n)] = 1
    return codes


def _table_from_structural(
    block_pts: list[PotentialTreatment],
    j: int,
    f: StructuralOutcome,
    z_own: float,
    z_peer: float,
) -> TableOutcome:
    """Materialize one individual's outcome function as an explicit table."""
    n = len(block_pts)
    size = 2**n
    d_mat = np.stack(
        [(np.arange(size, dtype=np.int64) >> (n - 1 - c)) & 1 for c in range(n)], axis=1
    )
    own = d_mat[:, j].astype(float)
    k = d_mat.sum(axis=1).astype(float) - own
    base = (
        f.intercept
        + f.direct * own
        + (f.peer + f.interaction * own) * k
        + f.curvature * k * k
        + f.noise
    )
    if z_own == 0.0 and z_peer == 0.0:
        return TableOutcome(n=n, values=base)
    z_mat = d_mat  # same enumeration, reused for the encouragement axis
    own_z = z_mat[:, j].astype(float)
    peer_z = z_mat.sum(axis=1).astype(float) - own_z
    z_term = z_own * own_z + z_peer * peer_z
    return TableOutcome(n=n, z_values=base[:, None] + z_term[None, :])


def build_population(cfg: DgpConfig, rng: np.random.Generator) -> Population:
    """Generate a population that passes ``validate`` with realized flags.

    Deterministic given the rng state. With complier_floor (the default),
    every block contains at least one complier so complier-restricted block
    averages are always defined.
    """
    _check_config(cfg)
    oc = cfg.outcome
    probs = np.asarray(cfg.strata, dtype=float)
    probs = probs / probs.sum()

    if isinstance(cfg.block_size, tuple):
        lo, hi = cfg.block_size
        sizes = rng.integers(lo, hi + 1, size=cfg.blocks)
    else:
        sizes = np.full(cfg.blocks, cfg.block_size, dtype=int)

    blocks = []
    for n in sizes:
        n = int(n)
        codes = _draw_strata(n, probs, cfg.complier_floor, rng)
        pts = [_PT_BY_STRATUM[_STRATA_ORDER[c]] for c in codes]
        funcs = []
        for _ in range(n):
            noise = float(rng.normal(0.0, oc.noise_sd)) if oc.noise_sd > 0 else 0.0
            funcs.append(
                StructuralOutcome(
                    intercept=_draw_param(oc.intercept, rng),
                    direct=_draw_param(oc.direct, rng),
                    peer=_draw_param(oc.peer, rng),
                    interaction=_draw_param(oc.interaction, rng),
                    curvature=_draw_param(oc.curvature, rng),
                    noise=noise,
                )
            )
        if oc.representation == "table":
            as_table = True
        elif oc.representation == "mixed":
            as_table = bool(rng.random() < 0.5)
        else:
            as_table = False
        if as_table:
            ys = [
                _table_from_structural(pts, j, funcs[j], oc.z_own, oc.z_peer) for j in range(n)
            ]
        else:
            ys = funcs
        blocks.append(tuple(Individual(pt, y) for pt, y in zip(pts, ys)))

    # encouragement terms force tables in every block (_check_config)
    strata = {classify(ind.pt) for block in blocks for ind in block}
    pop = Population(blocks=tuple(blocks), monotone=ComplianceType.DEFIER not in strata,
                     one_sided=strata <= {ComplianceType.COMPLIER, ComplianceType.NEVER_TAKER},
                     exclusion_ok=oc.z_own == 0.0 and oc.z_peer == 0.0)
    validate(pop)
    return pop


def convert_to_tables(pop: Population) -> Population:
    """Re-encode every structural outcome as an explicit table (same math)."""
    blocks = []
    for block in pop.blocks:
        pts = [ind.pt for ind in block]
        new = []
        for j, ind in enumerate(block):
            if isinstance(ind.y, StructuralOutcome):
                new.append(Individual(ind.pt, _table_from_structural(pts, j, ind.y, 0.0, 0.0)))
            else:
                new.append(ind)
        blocks.append(tuple(new))
    return Population(
        blocks=tuple(blocks),
        monotone=pop.monotone,
        one_sided=pop.one_sided,
        exclusion_ok=pop.exclusion_ok,
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _table_keys(n: int, keyed: bool) -> tuple[str, ...]:
    """A size-n table's JSON keys in row order: the bit string of the
    treatment row, or "d|z" (treatment-major) for an encouragement-keyed one."""
    rows = [f"{r:0{n}b}" for r in range(2**n)]
    return tuple(f"{d}|{z}" for d in rows for z in rows) if keyed else tuple(rows)


def _outcome_to_dict(y: OutcomeFunction) -> dict:
    if isinstance(y, StructuralOutcome):
        return {"kind": "structural", **{k: getattr(y, k) for k in _COEFS}}
    arr = y.z_values if y.z_dependent else y.values
    return {"kind": "table_z" if y.z_dependent else "table", "size": y.n,
            "values": dict(zip(_table_keys(y.n, y.z_dependent), arr.ravel()))}


def _json_int(x, what: str) -> int:
    """An integral JSON number as an int; booleans and strings raise."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or x != int(x):
        raise InvalidConfig(f"{what}: expected an integer, got {x!r}")
    return int(x)


def _finite(pairs, what: str) -> list[float]:
    """The values of (key, value) pairs as floats; raises naming the first
    that is not a finite JSON number (a boolean or a string is not)."""
    for key, x in pairs:
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            raise InvalidConfig(f"{what} {key!r}: expected a finite number, got {x!r}")
    return [float(x) for _, x in pairs]


def _outcome_from_dict(d, block_size: int) -> OutcomeFunction:
    if not isinstance(d, dict):
        raise InvalidConfig(f"outcome: expected an object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == "structural":
        return StructuralOutcome(*_finite([(k, d.get(k, 0.0)) for k in _COEFS], "outcome"))
    if kind not in ("table", "table_z"):
        raise InvalidConfig(f"unknown outcome kind {kind!r}")
    n = _json_int(d["size"], "table size")
    if n != block_size:
        raise ArityMismatch(f"table size {n} != block size {block_size}")
    entries, keys = d["values"], _table_keys(n, kind == "table_z")
    try:
        arr = np.array(_finite([(key, entries[key]) for key in keys], "table entry"))
    except KeyError as exc:
        raise MissingTableEntry(f"table has no entry for {exc}") from None
    if len(entries) != len(keys):
        extra = sorted(entries.keys() - set(keys))[0]
        raise InvalidConfig(f"table key {extra!r} is not a row of a size-{n} {kind}")
    if kind == "table":
        return TableOutcome(n=n, values=arr)
    return TableOutcome(n=n, z_values=arr.reshape(2**n, 2**n))


def population_to_dict(pop: Population) -> dict:
    return {
        "flags": {
            "monotone": pop.monotone,
            "one_sided": pop.one_sided,
            "exclusion_ok": pop.exclusion_ok,
        },
        "blocks": [
            [
                {"d0": ind.pt.d0, "d1": ind.pt.d1, "outcome": _outcome_to_dict(ind.y)}
                for ind in block
            ]
            for block in pop.blocks
        ],
    }


def population_from_dict(data: dict) -> Population:
    try:
        flags = {k: data["flags"][k] for k in ("monotone", "one_sided", "exclusion_ok")}
        raw_blocks = list(data["blocks"])
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"population file missing section: {exc}") from exc
    if not all(isinstance(v, bool) for v in flags.values()):
        raise InvalidConfig(f"population flags: expected true or false, got {flags}")
    blocks = []
    for i, raw in enumerate(raw_blocks):
        if not isinstance(raw, list):
            raise InvalidConfig(f"population block {i}: expected a list of individuals")
        block = []
        for j, r in enumerate(raw):
            where = f"population block {i} individual {j}"
            try:
                pt = PotentialTreatment(_json_int(r["d0"], "d0"), _json_int(r["d1"], "d1"))
                block.append(Individual(pt, _outcome_from_dict(r["outcome"], len(raw))))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                why = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise InvalidConfig(f"{where}: {why}") from None
            except PeerEncError as exc:
                raise type(exc)(f"{where}: {exc}") from None
        blocks.append(tuple(block))
    try:
        pop = Population(blocks=tuple(blocks), **flags)
    except ValueError as exc:  # fewer than 2 blocks, or an empty block
        raise InvalidConfig(f"population file: {exc}") from None
    validate(pop)  # FlagMismatch on tampered flags
    return pop


def save_population(pop: Population, path) -> None:
    Path(path).write_text(json.dumps(population_to_dict(pop), sort_keys=True, indent=1) + "\n")


def load_population(path) -> Population:
    return population_from_dict(json.loads(Path(path).read_text()))
