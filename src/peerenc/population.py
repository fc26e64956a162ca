"""Finite populations of blocks whose individuals carry fully specified
potential treatments and potential outcomes, stored as columns.

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

A ``Population`` holds these as flat arrays in block order, plus each table
block's tables as one array. The JSON population format is the one
per-individual description: ``population_from_dict`` fills the arrays from
it and ``population_to_dict`` writes it back. Populations are immutable once
built; all randomness used to build one is frozen at build time, so
everything downstream is a deterministic function of the population and the
design's own random streams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
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


_PT_BY_STRATUM = {
    ComplianceType.ALWAYS_TAKER: (1, 1),
    ComplianceType.COMPLIER: (0, 1),
    ComplianceType.NEVER_TAKER: (0, 0),
    ComplianceType.DEFIER: (1, 0),
}
_STRATUM_BY_PT = {pt: ct for ct, pt in _PT_BY_STRATUM.items()}


def classify(d0: int, d1: int) -> ComplianceType:
    """Compliance stratum of the potential treatments (d0, d1)."""
    return _STRATUM_BY_PT[(int(d0), int(d1))]


# A structural outcome's coefficients, in the order of ``Population.coef``'s
# rows and of ``structural_value``'s ``coef``.
_COEFS = ("intercept", "direct", "peer", "interaction", "curvature", "noise")


def structural_value(coef, own_d, k):
    """The structural outcome formula, elementwise over arrays:

        intercept + direct*d + peer*k + interaction*d*k + curvature*k^2 + noise

    at own treatment d and treated-peer count k. ``coef`` holds the
    coefficients in ``_COEFS`` order; ``noise`` is the individual shock,
    drawn once when the population is built. Depending on peers only through
    their treated count makes the outcome anonymous in peers and independent
    of encouragements."""
    intercept, direct, peer, interaction, curvature, noise = coef
    return (intercept + direct * own_d + peer * k + interaction * own_d * k
            + curvature * k * k + noise)


def pack_rows(bits) -> np.ndarray:
    """Bit-pack binary vectors along the last axis, most significant bit
    first (index 0): the row of a table or of an assignment enumeration."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Population:
    """Blocks of individuals as flat arrays in block order, plus
    compliance-structure flags; block i owns individuals starts[i]:starts[i+1].

    ``coef`` rows are the structural coefficients in ``_COEFS`` order (zero
    for table members). ``tables[i]`` holds block i's tables as one
    [member, d row, z row] array, or None when every member is structural;
    its z axis has length 1 unless a member is encouragement-keyed, and
    structural members' rows are unused. ``table_values`` and ``outcomes``
    are the one outcome lookup.

    Flags are claims about the data and are validated by ``validate``, never
    assumed: ``monotone`` means no defiers anywhere, ``one_sided`` means
    nobody can take treatment unencouraged (d0 = 0 for all), ``exclusion_ok``
    means no outcome depends on encouragements.
    """

    starts: np.ndarray  # (B + 1,) block offsets
    d0: np.ndarray  # (N,) treatment when unencouraged
    d1: np.ndarray  # (N,) treatment when encouraged
    structural: np.ndarray  # (N,) structural outcome (else a table)
    z_dependent: np.ndarray  # (N,) encouragement-keyed table
    coef: np.ndarray  # (6, N)
    tables: tuple[np.ndarray | None, ...]  # per block: [member, d row, z row], or None
    monotone: bool
    one_sided: bool
    exclusion_ok: bool

    def __post_init__(self):
        starts = np.asarray(self.starts, dtype=np.int64)
        if starts.ndim != 1 or starts.size < 3:
            raise ValueError(f"population needs at least 2 blocks, got {max(starts.size - 1, 0)}")
        sizes = np.diff(starts)
        if (sizes < 1).any():
            raise ValueError(f"block {int(np.argmax(sizes < 1))} is empty")
        if starts[0] != 0:
            raise ValueError(f"block offsets must start at 0, got {starts[0]}")
        n = int(starts[-1])
        for name, shape in (("d0", (n,)), ("d1", (n,)), ("structural", (n,)),
                            ("z_dependent", (n,)), ("coef", (len(_COEFS), n))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ArityMismatch(f"{name} needs shape {shape}, got {got}")
        pts = np.stack([np.asarray(self.d0), np.asarray(self.d1)])
        structural = np.asarray(self.structural, dtype=bool)
        z_dependent = np.asarray(self.z_dependent, dtype=bool)
        bad = ~np.isin(pts, (0, 1)).all(axis=0)
        if bad.any():
            raise ValueError(f"{_individual(starts, bad)}: potential treatments must be binary,"
                             f" got {tuple(pts[:, np.argmax(bad)].tolist())}")
        if (structural & z_dependent).any():
            raise ValueError(f"{_individual(starts, structural & z_dependent)}: a structural"
                             " outcome cannot be encouragement-keyed")
        if len(self.tables) != sizes.size:
            raise ArityMismatch(f"tables: expected one entry per block ({sizes.size}),"
                                f" got {len(self.tables)}")
        tables = tuple(None if t is None else np.asarray(t, dtype=float) for t in self.tables)
        for i, table in enumerate(tables):
            block = slice(starts[i], starts[i + 1])
            _check_tables(i, table, structural[block], z_dependent[block])
        arrays = {"starts": starts, "d0": pts[0].astype(np.uint8), "d1": pts[1].astype(np.uint8),
                  "structural": structural, "z_dependent": z_dependent,
                  "coef": np.asarray(self.coef, dtype=float)}
        for arr in (*arrays.values(), *(t for t in tables if t is not None)):
            arr.setflags(write=False)
        for name, arr in (*arrays.items(), ("tables", tables)):
            object.__setattr__(self, name, arr)

    @property
    def n_blocks(self) -> int:
        return self.starts.size - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self.starts).tolist())

    @property
    def n_individuals(self) -> int:
        return int(self.starts[-1])

    def in_stratum(self, stratum: ComplianceType | None) -> np.ndarray:
        """Mask of the individuals in a compliance stratum (everyone for None)."""
        if stratum is None:
            return np.ones(self.d0.size, dtype=bool)
        d0, d1 = _PT_BY_STRATUM[stratum]
        return (self.d0 == d0) & (self.d1 == d1)

    def table_values(self, i: int, d_rows, z_rows) -> np.ndarray:
        """Block i's table entries: result[..., j, r] is member j's entry at
        the bit-packed rows d_rows[..., j, r] and z_rows[..., j, r], which
        broadcast against a (members, 1) axis. The z rows are ignored unless
        the block holds an encouragement-keyed table."""
        table = self.tables[i]
        members = np.arange(table.shape[0])[:, None]
        return table[members, d_rows, z_rows if table.shape[2] > 1 else 0]

    def outcomes(self, d: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Every individual's outcome in every replicate: d and z are (R, N)
        realized treatments and encouragements (flat, block order)."""
        sizes = np.diff(self.starts)
        k = np.repeat(np.add.reduceat(d, self.starts[:-1], axis=1, dtype=np.int64), sizes, axis=1)
        y = structural_value(self.coef, d.astype(float), (k - d).astype(float))
        for i in np.flatnonzero([t is not None for t in self.tables]):
            block = slice(self.starts[i], self.starts[i + 1])
            rows = self.table_values(i, pack_rows(d[:, block]), pack_rows(z[:, block]))
            y[:, block] = np.where(self.structural[block], y[:, block], rows.T)
        return y


def _individual(starts: np.ndarray, mask: np.ndarray) -> str:
    """The first individual of a mask, as "block i individual j"."""
    u = int(np.argmax(mask))
    i = int(np.searchsorted(starts, u, side="right")) - 1
    return f"block {i} individual {u - starts[i]}"


def _check_tables(i: int, table, structural, z_dependent) -> None:
    """Block i's tables: present when a member is not structural, shaped
    (n, 2^n, 1 or 2^n), with a z axis for encouragement-keyed members and no
    variation along it for the others, and every entry finite."""
    n = structural.size
    if table is None:
        if not structural.all():
            raise ValueError(f"block {i}: a table member needs the block's tables")
        return
    if table.shape not in ((n, 2**n, 1), (n, 2**n, 2**n)):
        raise ArityMismatch(f"block {i}: tables of a size-{n} block need shape"
                            f" ({n}, {2**n}, 1 or {2**n}), got {table.shape}")
    if z_dependent.any() and table.shape[2] == 1:
        raise ArityMismatch(f"block {i}: an encouragement-keyed table needs a z axis of {2**n}")
    if np.isnan(table).any():
        missing = int(np.isnan(table).sum())
        raise MissingTableEntry(f"block {i}: table has {missing} missing entries")
    if not np.isfinite(table).all():
        raise ValueError(f"block {i}: table entries must be finite")
    plain = table[~structural & ~z_dependent]
    if (plain != plain[:, :, :1]).any():
        raise ValueError(f"block {i}: a table that is not encouragement-keyed varies with z")


def outcome(pop: Population, i: int, j: int, d_vec, z_vec=None) -> float:
    """Potential outcome of individual (i, j) under a block treatment vector.

    ``z_vec`` is consulted only by encouragement-keyed tables; for every
    exclusion-compliant individual the result is independent of it.
    """
    i = range(pop.n_blocks)[i]
    n = pop.sizes[i]
    if len(d_vec) != n:
        raise ArityMismatch(f"treatment vector length {len(d_vec)} != block size {n}")
    j = range(n)[j]
    u = pop.starts[i] + j
    if pop.structural[u]:
        own = int(d_vec[j])
        return float(structural_value(pop.coef[:, u], own, int(np.sum(d_vec)) - own))
    if pop.z_dependent[u] and (z_vec is None or len(z_vec) != n):
        raise ArityMismatch(f"encouragement-keyed table needs a length-{n} encouragement vector")
    z_row = pack_rows(z_vec) if pop.z_dependent[u] else 0
    return float(pop.table_values(i, pack_rows(d_vec), z_row)[j, 0])


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
    firsts = pop.starts[:-1]
    counts = {ct: np.add.reduceat(pop.in_stratum(ct), firsts) for ct in ComplianceType}
    sizes = pop.sizes
    effects = np.add.reduceat(pop.d1.astype(np.int64) - pop.d0, firsts) / sizes
    one_sided = np.add.reduceat(pop.d0, firsts) == 0
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
    found_exclusion = not pop.z_dependent.any()
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
    if len(s) != 4 or not all(p >= 0 for p in s) or abs(sum(s) - 1.0) > 1e-9:
        raise InvalidConfig(f"strata probabilities must be nonnegative and sum to 1, got {s}")
    at, co, nt, de = s
    if cfg.monotone and de > 0:
        raise InvalidConfig("monotone requested but defier mass is positive")
    if cfg.one_sided and (de > 0 or at > 0):
        raise InvalidConfig("one_sided requested but always-taker or defier mass is positive")
    oc = cfg.outcome
    sds = {k: getattr(oc, k)[1] for k in _COEFS[:-1] if isinstance(getattr(oc, k), tuple)}
    for name, sd in (*sds.items(), ("noise_sd", oc.noise_sd)):
        if not sd >= 0:
            raise InvalidConfig(f"outcome {name}: a standard deviation must be >= 0, got {sd}")
    rep = oc.representation
    if rep not in ("structural", "table", "mixed"):
        raise InvalidConfig(f"unknown outcome representation {rep!r}")
    z_dep = oc.z_own != 0.0 or oc.z_peer != 0.0
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


def _tables_from_coef(coef: np.ndarray, z_own: float = 0.0, z_peer: float = 0.0) -> np.ndarray:
    """A block's structural outcomes materialized as its [member, d row,
    z row] tables; ``coef`` holds the members' coefficient columns. Nonzero
    z_own / z_peer add the encouragement terms over a z axis of the same
    enumeration; otherwise the z axis has length 1. The evaluation order
    below fixes the table bytes of generated populations."""
    n = coef.shape[1]
    bits = (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    own = bits.T.astype(float)  # own[j, r]: member j's bit of row r
    k = bits.sum(axis=1).astype(float) - own
    intercept, direct, peer, interaction, curvature, noise = coef[:, :, None]
    base = intercept + direct * own + (peer + interaction * own) * k + curvature * k * k + noise
    if z_own == 0.0 and z_peer == 0.0:
        return base[:, :, None]
    return base[:, :, None] + (z_own * own + z_peer * k)[:, None, :]


def build_population(cfg: DgpConfig, rng: np.random.Generator) -> Population:
    """Generate a population that passes ``validate`` with realized flags.

    Deterministic given the rng state: block sizes, then per block its strata,
    each member's noise and coefficients in turn, and (for "mixed") the
    representation coin. With complier_floor (the default), every block
    contains at least one complier so complier-restricted block averages are
    always defined.
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

    codes, coef, tables = [], [], []
    for n in sizes.tolist():
        codes.append(_draw_strata(n, probs, cfg.complier_floor, rng))
        block = []
        for _ in range(n):
            noise = float(rng.normal(0.0, oc.noise_sd)) if oc.noise_sd > 0 else 0.0
            block.append([_draw_param(getattr(oc, k), rng) for k in _COEFS[:-1]] + [noise])
        block = np.array(block).T
        if oc.representation == "table":
            as_table = True
        elif oc.representation == "mixed":
            as_table = bool(rng.random() < 0.5)
        else:
            as_table = False
        tables.append(_tables_from_coef(block, oc.z_own, oc.z_peer) if as_table else None)
        coef.append(np.zeros_like(block) if as_table else block)

    codes = np.concatenate(codes)
    d0, d1 = np.array([_PT_BY_STRATUM[ct] for ct in _STRATA_ORDER])[codes].T
    structural = np.repeat([t is None for t in tables], sizes)
    # encouragement terms force tables in every block (_check_config)
    exclusion_ok = oc.z_own == 0.0 and oc.z_peer == 0.0
    pop = Population(starts=np.cumsum([0, *sizes.tolist()]), d0=d0, d1=d1,
                     structural=structural, z_dependent=~structural & (not exclusion_ok),
                     coef=np.concatenate(coef, axis=1), tables=tuple(tables),
                     monotone=not (d0 > d1).any(), one_sided=not d0.any(),
                     exclusion_ok=exclusion_ok)
    validate(pop)
    return pop


def convert_to_tables(pop: Population) -> Population:
    """Re-encode every structural outcome as an explicit table (same math)."""
    tables = []
    for i, table in enumerate(pop.tables):
        block = slice(pop.starts[i], pop.starts[i + 1])
        materialized = _tables_from_coef(pop.coef[:, block])
        tables.append(materialized if table is None else
                      np.where(pop.structural[block, None, None], materialized, table))
    return Population(starts=pop.starts, d0=pop.d0, d1=pop.d1,
                      structural=np.zeros_like(pop.structural), z_dependent=pop.z_dependent,
                      coef=np.zeros_like(pop.coef), tables=tuple(tables),
                      monotone=pop.monotone, one_sided=pop.one_sided,
                      exclusion_ok=pop.exclusion_ok)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _row_keys(n: int) -> tuple[str, ...]:
    """The bit strings of a size-n table's 2^n treatment rows, in row order."""
    return tuple(f"{r:0{n}b}" for r in range(2**n))


def _table_keys(n: int, keyed: bool):
    """A size-n table's JSON keys in row order: the bit string of the
    treatment row, or "d|z" (treatment-major) for an encouragement-keyed one.
    The 4^n keyed keys are generated one at a time and never kept."""
    rows = _row_keys(n)
    return (f"{d}|{z}" for d in rows for z in rows) if keyed else rows


def _is_table_key(key: str, n: int, keyed: bool) -> bool:
    """Whether key names a row of a size-n table (see ``_table_keys``)."""
    if not isinstance(key, str):
        return False
    parts = key.split("|") if keyed else [key]
    return len(parts) == 1 + keyed and all(len(p) == n and not p.strip("01") for p in parts)


def _json_int(x, what: str) -> int:
    """An integral JSON number as an int; booleans and strings raise."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or x != int(x):
        raise InvalidConfig(f"{what}: expected an integer, got {x!r}")
    return int(x)


def _finite(pairs, what: str) -> list[float]:
    """The values of (key, value) pairs as floats; raises naming the first
    that is not a finite JSON number (a boolean or a string is not)."""
    out = []
    for key, x in pairs:
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            raise InvalidConfig(f"{what} {key!r}: expected a finite number, got {x!r}")
        out.append(float(x))
    return out


def _table_from_dict(d: dict, n: int, keyed: bool) -> np.ndarray:
    """A table outcome's entries in row order, (2^n,) or (2^n, 2^n) when
    encouragement-keyed. The entry count is compared with the row count
    before any key is built, so the work is bounded by the input's size."""
    size = _json_int(d["size"], "table size")
    if size != n:
        raise ArityMismatch(f"table size {size} != block size {n}")
    entries, rows = d["values"], 4**n if keyed else 2**n
    if not isinstance(entries, dict):
        raise InvalidConfig(f"table values: expected an object, got {type(entries).__name__}")
    if len(entries) < rows:
        raise MissingTableEntry(f"table has {len(entries)} of its {rows} entries")
    if len(entries) > rows:
        extra = min(key for key in entries if not _is_table_key(key, n, keyed))
        raise InvalidConfig(f"table key {extra!r} is not a row of a size-{n} table")
    try:
        values = [entries[key] for key in _table_keys(n, keyed)]
    except KeyError as exc:
        raise MissingTableEntry(f"table has no entry for {exc}") from None
    arr = np.array(_finite(zip(_table_keys(n, keyed), values), "table entry"))
    return arr.reshape(2**n, 2**n) if keyed else arr


def population_to_dict(pop: Population) -> dict:
    d0, d1, coef = pop.d0.tolist(), pop.d1.tolist(), pop.coef.T.tolist()
    starts = pop.starts.tolist()
    blocks = []
    for i, table in enumerate(pop.tables):
        n, block = starts[i + 1] - starts[i], []
        for j, u in enumerate(range(starts[i], starts[i + 1])):
            if pop.structural[u]:
                y = {"kind": "structural", **dict(zip(_COEFS, coef[u]))}
            else:
                keyed = bool(pop.z_dependent[u])
                y = {"kind": "table_z" if keyed else "table", "size": n,
                     "values": dict(zip(_table_keys(n, keyed),
                                        (table[j] if keyed else table[j, :, 0]).ravel().tolist()))}
            block.append({"d0": d0[u], "d1": d1[u], "outcome": y})
        blocks.append(block)
    return {
        "flags": {
            "monotone": pop.monotone,
            "one_sided": pop.one_sided,
            "exclusion_ok": pop.exclusion_ok,
        },
        "blocks": blocks,
    }


def population_from_dict(data: dict) -> Population:
    try:
        flags = {k: data["flags"][k] for k in ("monotone", "one_sided", "exclusion_ok")}
        raw_blocks = list(data["blocks"])
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"population file missing section: {exc}") from exc
    if not all(isinstance(v, bool) for v in flags.values()):
        raise InvalidConfig(f"population flags: expected true or false, got {flags}")
    sizes, d0, d1, kinds, coef, tables = [], [], [], [], [], []
    for i, raw in enumerate(raw_blocks):
        if not isinstance(raw, list):
            raise InvalidConfig(f"population block {i}: expected a list of individuals")
        n, table = len(raw), None
        for j, r in enumerate(raw):
            where = f"population block {i} individual {j}"
            try:
                pt = (_json_int(r["d0"], "d0"), _json_int(r["d1"], "d1"))
                y = r["outcome"]
                if not isinstance(y, dict):
                    raise InvalidConfig(f"outcome: expected an object, got {type(y).__name__}")
                kind = y.get("kind")
                if kind == "structural":
                    coef.append(_finite([(k, y.get(k, 0.0)) for k in _COEFS], "outcome"))
                elif kind in ("table", "table_z"):
                    values = _table_from_dict(y, n, kind == "table_z")
                    if table is None:
                        table = np.zeros((n, 2**n, 1))
                    if values.ndim == 2 and table.shape[2] == 1:
                        table = np.repeat(table, 2**n, axis=2)
                    table[j] = values if values.ndim == 2 else values[:, None]
                    coef.append([0.0] * len(_COEFS))
                else:
                    raise InvalidConfig(f"unknown outcome kind {kind!r}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                why = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise InvalidConfig(f"{where}: {why}") from None
            except PeerEncError as exc:
                raise type(exc)(f"{where}: {exc}") from None
            d0.append(pt[0])
            d1.append(pt[1])
            kinds.append(kind)
        sizes.append(n)
        tables.append(table)
    try:
        pop = Population(starts=np.cumsum([0, *sizes]), d0=d0, d1=d1,
                         structural=[k == "structural" for k in kinds],
                         z_dependent=[k == "table_z" for k in kinds],
                         coef=np.array(coef).reshape(-1, len(_COEFS)).T, tables=tuple(tables),
                         **flags)
    except ValueError as exc:  # fewer than 2 blocks, an empty block, a non-binary d0 / d1
        raise InvalidConfig(f"population file: {exc}") from None
    validate(pop)  # FlagMismatch on tampered flags
    return pop


def save_population(pop: Population, path) -> None:
    Path(path).write_text(json.dumps(population_to_dict(pop), sort_keys=True, indent=1) + "\n")


def read_json(path):
    """The JSON document in a UTF-8 file; InvalidConfig naming the path when
    the file cannot be read, is not UTF-8 text or is not JSON."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise InvalidConfig(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                            f"{exc.msg}") from None


def load_population(path) -> Population:
    return population_from_dict(read_json(path))
