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

import functools
import json
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _json
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
# A synthetic population holds at most this many individuals, and its
# tables at most this many entries in all (1 GiB of float64).
MAX_INDIVIDUALS = 1 << 20
MAX_TABLE_ENTRIES = 1 << 27


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


# A structural outcome's coefficients, in the order of ``Population.coef``'s
# rows and of ``structural_value``'s ``coef``.
_COEFS = ("intercept", "direct", "peer", "interaction", "curvature", "noise")
# The population file's keys: its flags and a table outcome's.
_FLAGS_KEYS = ("monotone", "one_sided", "exclusion_ok")
_TABLE_KEYS = ("kind", "size", "values")


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

    ``bound`` (derived, not passed) holds each individual's bound on the
    absolute value of every outcome it can take: the structural bound with
    at most n - 1 treated peers, or the largest |entry| of its table. The
    constructor refuses a population where 2 * sum(bound) is not finite. A
    block mean of outcomes or of their averages is at most its block's sum of
    bounds, so every block sum and every contrast of two block means that the
    exact engine forms, and every population mean of such contrasts over the
    blocks, stays finite.
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
    bound: np.ndarray = field(init=False, repr=False)  # (N,) outcome bounds

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
        # a structural outcome is at most this bound in absolute value, with k
        # <= n - 1 treated peers: finite, every outcome the kernels evaluate is
        peers = np.repeat(sizes - 1, sizes).astype(float)
        c = np.abs(np.asarray(self.coef, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            bound = c[0] + c[1] + (c[2] + c[3]) * peers + c[4] * peers * peers + c[5]
        overflows = structural & ~np.isfinite(bound)
        if overflows.any():
            raise ValueError(f"{_individual(starts, overflows)}: the structural outcome"
                             " overflows (its coefficients' bound is not finite)")
        if len(self.tables) != sizes.size:
            raise ArityMismatch(f"tables: expected one entry per block ({sizes.size}),"
                                f" got {len(self.tables)}")
        tables = tuple(None if t is None else np.asarray(t, dtype=float) for t in self.tables)
        for i, table in enumerate(tables):
            block = slice(starts[i], starts[i + 1])
            _check_tables(i, table, structural[block], z_dependent[block])
            if table is not None:
                bound[block] = np.where(structural[block], bound[block],
                                        np.abs(table).max(axis=(1, 2)))
        with np.errstate(over="ignore"):
            running = 2 * np.cumsum(bound)
        if not np.isfinite(running[-1]):
            i = int(np.searchsorted(starts, np.argmax(~np.isfinite(running)), side="right")) - 1
            raise ValueError(f"block {i}: the outcomes overflow (twice the running sum of the"
                             " individuals' outcome bounds first leaves the float range here)")
        arrays = {"starts": starts, "d0": pts[0].astype(np.uint8), "d1": pts[1].astype(np.uint8),
                  "structural": structural, "z_dependent": z_dependent,
                  "coef": np.asarray(self.coef, dtype=float), "bound": bound}
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


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """What ``validate`` found: per-block arrays over the B blocks, the flags
    the data satisfy and the warnings."""

    sizes: np.ndarray  # (B,) block sizes
    strata: dict[ComplianceType, np.ndarray]  # stratum -> (B,) member counts
    effects: np.ndarray  # (B,) the encouragement's mean effect on uptake
    monotone: bool
    one_sided: bool
    exclusion_ok: bool
    warnings: tuple[str, ...]

    def summary_lines(self) -> list[str]:
        lines = [
            f"blocks={self.sizes.size} individuals={self.sizes.sum()} "
            f"monotone={self.monotone} one_sided={self.one_sided} exclusion_ok={self.exclusion_ok}"
        ]
        counts = {ct.value: c.tolist() for ct, c in self.strata.items()}
        for i, (n, effect) in enumerate(zip(self.sizes.tolist(), self.effects.tolist())):
            strata = " ".join(f"{name}={c[i]}" for name, c in counts.items() if c[i])
            lines.append(f"  block {i}: n={n} effect_on_uptake={effect:+.4f} {strata}")
        lines.extend(f"  warning: {w}" for w in self.warnings)
        return lines


def validate(pop: Population) -> ValidationReport:
    """Check every flag against the individual-level data.

    Raises FlagMismatch when a declared flag contradicts what the data
    actually satisfy (in either direction); otherwise returns the per-block
    findings, warning about blocks where the encouragement moves nobody's
    uptake (ratio identities are undefined there).
    """
    firsts, sizes = pop.starts[:-1], np.diff(pop.starts)
    effects = np.add.reduceat(pop.d1.astype(np.int64) - pop.d0, firsts) / sizes
    found = {"monotone": not (pop.d0 > pop.d1).any(), "one_sided": not pop.d0.any(),
             "exclusion_ok": not pop.z_dependent.any()}
    for label, value in found.items():
        if getattr(pop, label) != value:
            raise FlagMismatch(f"flag {label}={getattr(pop, label)} but the data say {value}")
    return ValidationReport(
        sizes=sizes,
        strata={ct: np.add.reduceat(pop.in_stratum(ct), firsts) for ct in ComplianceType},
        effects=effects,
        warnings=tuple(f"EncouragementIneffective: block {i} has zero effect on uptake"
                       for i in np.flatnonzero(effects == 0.0)),
        **found,
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
    # sized by the largest block; under "mixed" every block may hold tables
    n = sizes[1]
    if cfg.blocks * n > MAX_INDIVIDUALS:
        raise InvalidConfig(f"{cfg.blocks} blocks of up to {n} individuals exceed the bound of"
                            f" {MAX_INDIVIDUALS} individuals")
    entries = cfg.blocks * n * 2**n * (2**n if z_dep else 1) if rep != "structural" else 0
    if entries > MAX_TABLE_ENTRIES:
        raise InvalidConfig(f"{cfg.blocks} blocks of up to {n} table members need {entries}"
                            f" table entries, over the bound of {MAX_TABLE_ENTRIES}")
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
    """Generate a population whose flags are the ones its data realize, so
    it passes ``validate``; InvalidConfig when a draw is not finite or a
    structural outcome can overflow.

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
    for i, n in enumerate(sizes.tolist()):
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
        if not np.isfinite(block).all():  # a draw overflowed
            k, j = np.argwhere(~np.isfinite(block))[0]
            raise InvalidConfig(f"block {i} individual {j}: drawn {_COEFS[k]} is {block[k, j]}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            table = _tables_from_coef(block, oc.z_own, oc.z_peer) if as_table else None
        if table is not None and not np.isfinite(table).all():  # finite terms, overflowing sum
            j, r = np.argwhere(~np.isfinite(table))[0][:2]
            raise InvalidConfig(f"block {i} individual {j}: outcome table entry at row "
                                f"{r:0{n}b} is not finite (its coefficients overflow)")
        tables.append(table)
        coef.append(np.zeros_like(block) if as_table else block)

    codes = np.concatenate(codes)
    d0, d1 = np.array([_PT_BY_STRATUM[ct] for ct in _STRATA_ORDER])[codes].T
    structural = np.repeat([t is None for t in tables], sizes)
    # encouragement terms force tables in every block (_check_config)
    exclusion_ok = oc.z_own == 0.0 and oc.z_peer == 0.0
    try:
        return Population(starts=np.cumsum([0, *sizes.tolist()]), d0=d0, d1=d1,
                          structural=structural, z_dependent=~structural & (not exclusion_ok),
                          coef=np.concatenate(coef, axis=1), tables=tuple(tables),
                          monotone=not (d0 > d1).any(), one_sided=not d0.any(),
                          exclusion_ok=exclusion_ok)
    except ValueError as exc:  # a structural outcome that overflows
        raise InvalidConfig(str(exc)) from None


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


@functools.lru_cache(maxsize=8)
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


def _table_from_dict(d: dict, n: int, keyed: bool) -> np.ndarray:
    """A table outcome's entries in row order, (2^n,) or (2^n, 2^n) when
    encouragement-keyed. The entry count is compared with the row count
    before any key is built, so the work is bounded by the input's size."""
    size = _json.integer(d["size"], "table size")
    if size != n:
        raise ArityMismatch(f"table size {size} != block size {n}")
    entries, rows = _json.obj(d["values"], "table values"), 4**n if keyed else 2**n
    if len(entries) < rows:
        raise MissingTableEntry(f"table has {len(entries)} of its {rows} entries")
    if len(entries) > rows:
        extra = next(key for key in entries if not _is_table_key(key, n, keyed))
        raise InvalidConfig(f"table key {extra!r} is not a row of a size-{n} table")
    if all(map(operator.eq, entries, _table_keys(n, keyed))):  # keys in row order, as saved
        values = list(entries.values())
    else:
        try:
            values = [entries[key] for key in _table_keys(n, keyed)]
        except KeyError as exc:
            raise MissingTableEntry(f"table has no entry for {exc}") from None
    arr = _json.numbers(values, (f"table entry {key!r}" for key in _table_keys(n, keyed)))
    return arr.reshape(2**n, 2**n) if keyed else arr


def population_to_dict(pop: Population) -> dict:
    """The population file's document: every table member's "values" maps
    its row keys to its entries."""
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
                rows = (table[j] if keyed else table[j, :, 0]).ravel().tolist()
                y = {"kind": "table_z" if keyed else "table", "size": n,
                     "values": dict(zip(_table_keys(n, keyed), rows))}
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
    data = _json.obj(data, "population", ("flags", "blocks"), required=("flags", "blocks"))
    flags = _json.obj(data["flags"], "population flags", _FLAGS_KEYS, required=_FLAGS_KEYS)
    flags = {k: _json.typed(flags[k], f"population flags.{k}", bool) for k in _FLAGS_KEYS}
    sizes, d0, d1, kinds, coef, tables, wheres = [], [], [], [], [], [], []
    for i, raw in enumerate(_json.typed(data["blocks"], "population blocks", list)):
        raw = _json.typed(raw, f"population block {i}", list, "a list of individuals")
        n, table = len(raw), None
        for j, r in enumerate(raw):
            where = f"population block {i} individual {j}"
            wheres.append(where)
            r = _json.obj(r, where, ("d0", "d1", "outcome"), required=("d0", "d1", "outcome"))
            try:
                d0.append(_json.integer(r["d0"], "d0"))
                d1.append(_json.integer(r["d1"], "d1"))
                y = _json.obj(r["outcome"], "outcome", required=("kind",))
                kind = _json.typed(y["kind"], "outcome kind", str)
                if kind == "structural":
                    _json.obj(y, "outcome", ("kind", *_COEFS))
                    coef.extend(y.get(k, 0.0) for k in _COEFS)
                elif kind in ("table", "table_z"):
                    _json.obj(y, "outcome", _TABLE_KEYS, required=_TABLE_KEYS)
                    values = _table_from_dict(y, n, kind == "table_z")
                    if table is None:
                        table = np.zeros((n, 2**n, 1))
                    if values.ndim == 2 and table.shape[2] == 1:
                        table = np.repeat(table, 2**n, axis=2)
                    table[j] = values if values.ndim == 2 else values[:, None]
                    coef.extend([0.0] * len(_COEFS))
                else:
                    raise InvalidConfig(f"unknown outcome kind {kind!r}")
            except PeerEncError as exc:
                raise type(exc)(f"{where}: {exc}") from None
            kinds.append(kind)
        sizes.append(n)
        tables.append(table)
    # every coefficient in one vectorized pass (a table member's are zeros)
    coef = _json.numbers(coef, (f"{w}: outcome {k!r}" for w in wheres for k in _COEFS))
    try:
        pop = Population(starts=np.cumsum([0, *sizes]), d0=d0, d1=d1,
                         structural=[k == "structural" for k in kinds],
                         z_dependent=[k == "table_z" for k in kinds],
                         coef=coef.reshape(-1, len(_COEFS)).T, tables=tuple(tables),
                         **flags)
    except ValueError as exc:  # fewer than 2 blocks, an empty block, a non-binary d0 / d1
        raise InvalidConfig(f"population file: {exc}") from None
    validate(pop)  # FlagMismatch on tampered flags
    return pop


# The population file's text as json.dumps(..., sort_keys=True, indent=1)
# writes it, between the values save_population fills in: an individual's
# opening (d0, d1), a structural outcome's coefficients in sorted key order
# (_SORTED_COEFS), a table outcome's kind and size before its "values", and
# the flags after the last block.
_INDIVIDUAL = '{\n    "d0": %d,\n    "d1": %d,\n    "outcome": {\n     '
_STRUCTURAL = _INDIVIDUAL + ('"curvature": %s,\n     "direct": %s,\n     "interaction": %s,\n'
                             '     "intercept": %s,\n     "kind": "structural",\n'
                             '     "noise": %s,\n     "peer": %s\n    }\n   }')
_SORTED_COEFS = [_COEFS.index(k) for k in sorted(_COEFS)]
_TABLE_HEAD = _INDIVIDUAL + '"kind": "%s",\n     "size": %d,\n     "values": '
_TABLE_TAIL = "\n    }\n   }"
_FLAGS = '\n ],\n "flags": {\n  "exclusion_ok": %s,\n  "monotone": %s,\n  "one_sided": %s\n }\n}\n'


def _float_json(x: float) -> str:
    """A float as json writes it: its repr, or NaN / Infinity / -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _entry_heads(n: int, keyed: bool) -> list[str]:
    """What json.dumps(..., sort_keys=True, indent=1) writes before each
    entry of a size-n table's "values" object at its depth in the population
    file (document, "blocks", block, individual, "outcome"): the separator,
    the indent and the key. Row order is sorted key order."""
    heads = [f',\n      "{key}": ' for key in _table_keys(n, keyed)]
    heads[0] = heads[0][1:]
    return heads


def _values_json(rows: np.ndarray, heads: list[str]) -> str:
    """A table member's "values" object from its entries in row order. Each
    entry is float.__repr__, as json writes floats, computed once per
    distinct bit pattern (so -0.0 and 0.0 stay apart)."""
    patterns, which = np.unique(rows.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, patterns.view(np.float64).tolist())), dtype=object)
    parts = [""] * (2 * len(heads))
    parts[::2] = heads
    parts[1::2] = texts[which].tolist()
    return "{" + "".join(parts) + "\n     }"


def _file_pieces(pop: Population):
    """The population file's text in pieces, one individual (or one table's
    "values") at a time, so no piece is larger than one member's table."""
    d0, d1, starts = pop.d0.tolist(), pop.d1.tolist(), pop.starts.tolist()
    coef = pop.coef[_SORTED_COEFS].T.tolist()
    heads = functools.cache(_entry_heads)  # keys live for this call only
    yield '{\n "blocks": ['
    for i, table in enumerate(pop.tables):
        n = starts[i + 1] - starts[i]
        yield ",\n  [" if i else "\n  ["
        for j, u in enumerate(range(starts[i], starts[i + 1])):
            sep = ",\n   " if j else "\n   "
            if pop.structural[u]:
                yield sep + _STRUCTURAL % (d0[u], d1[u], *map(_float_json, coef[u]))
            else:
                keyed = bool(pop.z_dependent[u])
                yield sep + _TABLE_HEAD % (d0[u], d1[u], "table_z" if keyed else "table", n)
                yield _values_json((table[j] if keyed else table[j, :, 0]).ravel(), heads(n, keyed))
                yield _TABLE_TAIL
        yield "\n  ]"
    yield _FLAGS % tuple(json.dumps(f) for f in (pop.exclusion_ok, pop.monotone, pop.one_sided))


def save_population(pop: Population, path) -> None:
    """Write ``json.dumps(population_to_dict(pop), sort_keys=True, indent=1)``
    and a newline, byte for byte, streamed to the file a piece at a time:
    memory is bounded by the largest member's table text, not the file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_file_pieces(pop))


def load_population(path) -> Population:
    return population_from_dict(_json.read_json(path))
