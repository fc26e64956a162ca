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

A ``Population`` holds these as flat arrays in block order: per-individual
columns, and one column of every table member's entries; the population
file (``popfile``) is the one per-individual description. Populations are
immutable once built; all randomness used to build one is frozen at build
time, so everything downstream is a deterministic function of the population
and the design's own random streams.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import _json
from ._report import Record
from .errors import ArityMismatch, GenerationFailed, InvalidConfig, MissingTableEntry

# Dense tables hold 2^n entries per individual; refuse silly sizes.
TABLE_REPRESENTATION_CAP = 12
# A population holds at most this many individuals, and its tables at most
# this many entries in all (1 GiB of float64).
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


class Population(Record, eq=False):
    """Blocks of individuals as flat arrays in block order; block i owns
    individuals starts[i]:starts[i+1]. The constructor refuses a population
    over ``MAX_INDIVIDUALS`` individuals or ``MAX_TABLE_ENTRIES`` table
    entries. It refuses, rather than converts, offsets that are not
    integers, d0, d1, ``structural`` or ``z_dependent`` entries other than 0
    or 1, and a table member's nonzero or non-finite coefficient.

    ``coef`` rows are the structural coefficients in ``_COEFS`` order (zero
    for table members). ``table`` holds every table member's entries, one
    member after another in individual order: a plain member's 2^n treatment
    rows, or an encouragement-keyed member's 4^n entries, treatment-major
    (entry d * 2^n + z). Row r of a block is the vector of r's bits, its
    first member the most significant. ``table_start`` (derived) holds each
    individual's offset into it, with one more entry for the end; a
    structural member's extent is empty. ``outcomes`` is the one lookup of
    realized outcomes; the exact kernel reads the table column directly.

    The compliance flags are properties of the data: ``monotone`` means no
    defiers anywhere, ``one_sided`` means nobody can take treatment
    unencouraged (d0 = 0 for all), ``exclusion_ok`` means no outcome depends
    on encouragements.

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
    table: np.ndarray  # (T,) the table members' entries, member by member
    # derived, set by __post_init__: table_start (N + 1,) offsets into table,
    # bound (N,) outcome bounds

    def __post_init__(self):
        starts = np.asarray(self.starts)
        if starts.ndim != 1 or starts.size < 3 or starts.dtype.kind not in "iu":
            raise ValueError(f"population needs integer offsets of at least 2 blocks, got"
                             f" {starts.dtype} offsets of shape {starts.shape}")
        starts = starts.astype(np.int64, copy=False)
        sizes = np.diff(starts)
        if (sizes < 1).any():
            raise ValueError(f"block {int(np.argmax(sizes < 1))} is empty")
        if starts[0] != 0:
            raise ValueError(f"block offsets must start at 0, got {starts[0]}")
        n = int(starts[-1])
        if n > MAX_INDIVIDUALS:
            raise ValueError(f"{n} individuals exceed the bound of {MAX_INDIVIDUALS} individuals")
        for name, shape in (("d0", (n,)), ("d1", (n,)), ("structural", (n,)),
                            ("z_dependent", (n,)), ("coef", (len(_COEFS), n))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ArityMismatch(f"{name} needs shape {shape}, got {got}")
        pts = np.stack([np.asarray(self.d0), np.asarray(self.d1)])
        flags = np.stack([np.asarray(self.structural), np.asarray(self.z_dependent)])
        for cols, what in ((pts, "potential treatments must be binary"),
                           (flags, "outcome flags (structural, z_dependent) must be 0 or 1")):
            bad = ~np.isin(cols, (0, 1)).all(axis=0)
            if bad.any():
                raise ValueError(f"{_individual(starts, bad)}: {what},"
                                 f" got {tuple(cols[:, np.argmax(bad)].tolist())}")
        d0, d1 = (col.astype(np.uint8) for col in pts)
        structural, z_dependent = (col.astype(bool) for col in flags)
        if (structural & z_dependent).any():
            raise ValueError(f"{_individual(starts, structural & z_dependent)}: a structural"
                             " outcome cannot be encouragement-keyed")
        # a structural outcome is at most this bound in absolute value, with k
        # <= n - 1 treated peers: finite, every outcome the kernels evaluate is
        n_of = np.repeat(sizes, sizes)
        peers = (n_of - 1).astype(float)
        coef = np.asarray(self.coef, dtype=float)
        c = np.abs(coef)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = c[0] + c[1] + (c[2] + c[3]) * peers + c[4] * peers * peers + c[5]
        overflows = structural & ~np.isfinite(bound)
        if overflows.any():
            raise ValueError(f"{_individual(starts, overflows)}: the structural outcome"
                             " overflows (its coefficients' bound is not finite)")
        table = np.asarray(self.table, dtype=float)
        if table.size > MAX_TABLE_ENTRIES:
            raise ValueError(f"{table.size} table entries exceed the bound of {MAX_TABLE_ENTRIES}")
        # each table member's extent is 2^bits entries; the total is summed in
        # floats, exact below 2^53, so no extent is formed before it fits
        bits = np.where(structural, 0, n_of << z_dependent)
        entries = np.exp2(bits[~structural]).sum()
        if table.ndim != 1 or entries != table.size:
            raise ArityMismatch(f"table needs {entries:.0f} entries (2^n per table member, 4^n"
                                f" when encouragement-keyed), got shape {table.shape}")
        table_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.where(structural, 0, np.left_shift(1, bits)), out=table_start[1:])
        bad = ~np.isfinite(table)
        if bad.any():
            u = int(np.searchsorted(table_start, np.argmax(bad), side="right")) - 1
            i = int(np.searchsorted(starts, u, side="right")) - 1
            missing = int(np.isnan(table[table_start[starts[i]]:table_start[starts[i + 1]]]).sum())
            if missing:
                raise MissingTableEntry(f"block {i}: table has {missing} missing entries")
            raise ValueError(f"block {i}: table entries must be finite")
        bad = ~structural & (coef != 0.0).any(axis=0)
        if bad.any():
            raise ValueError(f"{_individual(starts, bad)}: a table member's coefficients must"
                             f" be zero, got {tuple(coef[:, np.argmax(bad)].tolist())}")
        if table.size:
            bound[~structural] = np.maximum.reduceat(np.abs(table), table_start[:-1][~structural])
        with np.errstate(over="ignore"):
            running = 2 * np.cumsum(bound)
        if not np.isfinite(running[-1]):
            i = int(np.searchsorted(starts, np.argmax(~np.isfinite(running)), side="right")) - 1
            raise ValueError(f"block {i}: the outcomes overflow (twice the running sum of the"
                             " individuals' outcome bounds first leaves the float range here)")
        self.__dict__.update(starts=starts, d0=d0, d1=d1, structural=structural,
                             z_dependent=z_dependent, coef=coef, table=table,
                             table_start=table_start, bound=bound)

    @property
    def n_blocks(self) -> int:
        return self.starts.size - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self.starts).tolist())

    @property
    def n_individuals(self) -> int:
        return int(self.starts[-1])

    @property
    def monotone(self) -> bool:
        return not (self.d0 > self.d1).any()

    @property
    def one_sided(self) -> bool:
        return not self.d0.any()

    @property
    def exclusion_ok(self) -> bool:
        return not self.z_dependent.any()

    def in_stratum(self, stratum: ComplianceType | None) -> np.ndarray:
        """Mask of the individuals in a compliance stratum (everyone for None)."""
        if stratum is None:
            return np.ones(self.d0.size, dtype=bool)
        d0, d1 = _PT_BY_STRATUM[stratum]
        return (self.d0 == d0) & (self.d1 == d1)

    def outcomes(self, d: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Every individual's outcome in every replicate: d and z are (R, N)
        realized treatments and encouragements (flat, block order)."""
        firsts, sizes = self.starts[:-1], np.diff(self.starts)
        k = np.repeat(np.add.reduceat(d, firsts, axis=1, dtype=np.int64), sizes, axis=1)
        y = structural_value(self.coef, d.astype(float), (k - d).astype(float))
        u = np.flatnonzero(~self.structural)
        if u.size:
            # each individual's bit in its block's packed row; 0 in a block
            # without tables, which may be too large to pack
            tabled = np.repeat(np.add.reduceat(~self.structural, firsts) > 0, sizes)
            bit = np.where(tabled, np.repeat(self.starts[1:] - 1, sizes) - np.arange(d.shape[1]), 0)
            block = np.searchsorted(self.starts, u, side="right") - 1
            d_rows, z_rows = (np.add.reduceat(x.astype(np.int64) << bit, firsts, axis=1)[:, block]
                              for x in (d, z))
            # an encouragement-keyed member's entry d * 2^n + z; a plain one's d
            keyed = self.z_dependent[u]
            stride = sizes[block] * keyed
            y[:, u] = self.table[self.table_start[u] + (d_rows << stride) + z_rows * keyed]
        return y


def _individual(starts: np.ndarray, mask: np.ndarray) -> str:
    """The first individual of a mask, as "block i individual j"."""
    u = int(np.argmax(mask))
    i = int(np.searchsorted(starts, u, side="right")) - 1
    return f"block {i} individual {u - starts[i]}"


class ValidationReport(Record, eq=False):
    """What ``validate`` found: per-block arrays over the B blocks, the flags
    the data satisfy and the warnings."""

    sizes: np.ndarray  # (B,) block sizes
    strata: dict[ComplianceType, np.ndarray]  # stratum -> (B,) member counts
    effects: np.ndarray  # (B,) the encouragement's mean effect on uptake
    monotone: bool
    one_sided: bool
    exclusion_ok: bool
    warnings: tuple[str, ...]

    def to_text(self) -> str:
        lines = [
            f"blocks={self.sizes.size} individuals={self.sizes.sum()} "
            f"monotone={self.monotone} one_sided={self.one_sided} exclusion_ok={self.exclusion_ok}"
        ]
        counts = {ct.value: c.tolist() for ct, c in self.strata.items()}
        for i, (n, effect) in enumerate(zip(self.sizes.tolist(), self.effects.tolist())):
            strata = " ".join(f"{name}={c[i]}" for name, c in counts.items() if c[i])
            lines.append(f"  block {i}: n={n} effect_on_uptake={effect:+.4f} {strata}")
        lines.extend(f"  warning: {w}" for w in self.warnings)
        return "\n".join(lines)


def validate(pop: Population) -> ValidationReport:
    """The per-block findings and the flags the data satisfy, warning about
    blocks where the encouragement moves nobody's uptake (ratio identities
    are undefined there)."""
    firsts, sizes = pop.starts[:-1], np.diff(pop.starts)
    effects = np.add.reduceat(pop.d1.astype(np.int64) - pop.d0, firsts) / sizes
    return ValidationReport(
        sizes=sizes,
        strata={ct: np.add.reduceat(pop.in_stratum(ct), firsts) for ct in ComplianceType},
        effects=effects,
        monotone=pop.monotone,
        one_sided=pop.one_sided,
        exclusion_ok=pop.exclusion_ok,
        warnings=tuple(f"EncouragementIneffective: block {i} has zero effect on uptake"
                       for i in np.flatnonzero(effects == 0.0)),
    )


# --------------------------------------------------------------------------
# Synthetic data-generating process
# --------------------------------------------------------------------------

ParamSpec = float | tuple[float, float]  # constant, or (mean, sd) drawn per individual


class OutcomeConfig(Record):
    """Outcome model for the synthetic DGP, checked by the ``DgpConfig`` that
    holds it.

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


class DgpConfig(Record):
    """The synthetic DGP. The constructor (so ``replace`` too) refuses a
    config no population satisfies, naming the config field at fault
    (``config dgp`` for a bound that spans several): InvalidConfig, or
    GenerationFailed for a complier floor over zero complier mass."""

    blocks: int
    block_size: int | tuple[int, int]
    strata: tuple[float, float, float, float]  # masses in ComplianceType order
    outcome: OutcomeConfig = OutcomeConfig()
    monotone: bool | None = None  # requested guarantee, not a prediction
    one_sided: bool | None = None
    complier_floor: bool = True

    def __post_init__(self):
        blocks, bs, s, oc = self.blocks, self.block_size, self.strata, self.outcome
        if blocks < 2:
            raise InvalidConfig(f"config dgp.blocks: need at least 2 blocks, got {blocks}")
        sizes = tuple(bs) if isinstance(bs, (tuple, list)) else (bs, bs)
        if sizes[0] < 1 or sizes[1] < sizes[0]:
            raise InvalidConfig(f"config dgp.block_size: bad block size range {bs}")
        if len(s) != 4 or not all(p >= 0 for p in s) or abs(sum(s) - 1.0) > 1e-9:
            raise InvalidConfig("config dgp.strata: strata probabilities must be nonnegative and"
                                f" sum to 1, got {s}")
        at, co, nt, de = s
        if self.monotone and de > 0:
            raise InvalidConfig("config dgp.monotone: monotone requested but defier mass is"
                                " positive")
        if self.one_sided and (de > 0 or at > 0):
            raise InvalidConfig("config dgp.one_sided: one_sided requested but always-taker or"
                                " defier mass is positive")
        sds = {k: getattr(oc, k)[1] for k in _COEFS[:-1] if isinstance(getattr(oc, k), tuple)}
        for name, sd in (*sds.items(), ("noise_sd", oc.noise_sd)):
            if not sd >= 0:
                raise InvalidConfig(f"config dgp.outcome.{name}: a standard deviation must be"
                                    f" >= 0, got {sd}")
        rep = oc.representation
        if rep not in ("structural", "table", "mixed"):
            raise InvalidConfig(f"config dgp.outcome.representation: unknown outcome"
                                f" representation {rep!r}")
        z_dep = oc.z_own != 0.0 or oc.z_peer != 0.0
        if z_dep and rep != "table":
            raise InvalidConfig("config dgp.outcome: encouragement-dependent outcomes require"
                                " table representation")
        # sized by the largest block; under "mixed" every block may hold tables
        n = sizes[1]
        if rep in ("table", "mixed") and n > TABLE_REPRESENTATION_CAP:
            raise InvalidConfig(f"config dgp.block_size: table representation is capped at"
                                f" block size {TABLE_REPRESENTATION_CAP}")
        if blocks * n > MAX_INDIVIDUALS:
            raise InvalidConfig(f"config dgp: {blocks} blocks of up to {n} individuals exceed"
                                f" the bound of {MAX_INDIVIDUALS} individuals")
        entries = blocks * n * 2**n * (2**n if z_dep else 1) if rep != "structural" else 0
        if entries > MAX_TABLE_ENTRIES:
            raise InvalidConfig(f"config dgp: {blocks} blocks of up to {n} table members need"
                                f" {entries} table entries, over the bound of {MAX_TABLE_ENTRIES}")
        if self.complier_floor and co == 0.0:
            raise GenerationFailed("config dgp.complier_floor: complier floor requested but"
                                   " complier mass is zero")


def parse_dgp(section) -> DgpConfig:
    """The ``DgpConfig`` of a run config's ``dgp`` section: keys against the
    records' fields, values against their kinds."""
    d = _json.obj(section, "config dgp", DgpConfig._fields,
                  required=("blocks", "block_size", "strata"))
    oc = _json.obj(d.get("outcome", {}), "config dgp.outcome", OutcomeConfig._fields)
    outcome = OutcomeConfig(
        representation=_json.typed(oc.get("representation", "structural"),
                                   "config dgp.outcome.representation", str),
        **{k: _json.pair_or(_json.number, oc.get(k, 0.0), f"config dgp.outcome.{k}",
                            "a number or [mean, sd] pair") for k in _COEFS[:-1]},
        **{k: _json.number(oc.get(k, 0.0), f"config dgp.outcome.{k}")
           for k in ("noise_sd", "z_own", "z_peer")},
    )
    return DgpConfig(
        blocks=_json.integer(d["blocks"], "config dgp.blocks"),
        block_size=_json.pair_or(_json.integer, d["block_size"], "config dgp.block_size",
                                 "an integer or a [low, high] pair"),
        strata=_json.numbers_by_key(d["strata"], "config dgp.strata",
                                    tuple(ct.value for ct in ComplianceType)),
        outcome=outcome,
        **{k: _json.typed(d[k], f"config dgp.{k}", bool) for k in
           ("monotone", "one_sided", "complier_floor") if k in d},
    )


def _draw_strata(n: int, cdf: np.ndarray, complier_floor: bool, rng: np.random.Generator):
    """A block's stratum codes, drawn as rng.choice(4, size=n, p=probs) draws
    them (``cdf`` is the cumulative probs): uniforms looked up in the cdf."""
    for _ in range(100):
        codes = cdf.searchsorted(rng.random(n), side="right")
        if not complier_floor or (codes == 1).any():
            return codes
    # complier mass is positive (DgpConfig checks it) but unlucky: place one directly
    codes = cdf.searchsorted(rng.random(n), side="right")
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
    oc = cfg.outcome
    probs = np.asarray(cfg.strata, dtype=float)
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]

    if isinstance(cfg.block_size, tuple):
        lo, hi = cfg.block_size
        sizes = rng.integers(lo, hi + 1, size=cfg.blocks)
    else:
        sizes = np.full(cfg.blocks, cfg.block_size, dtype=int)
    starts = np.cumsum([0, *sizes.tolist()])
    # a member's draws in stream order: noise (when noise_sd > 0), then each
    # coefficient given as (mean, sd); the others are constants
    params = {"noise": (0.0, oc.noise_sd) if oc.noise_sd > 0 else 0.0,
              **{k: getattr(oc, k) for k in _COEFS[:-1]}}
    drawn = [k for k, spec in params.items() if isinstance(spec, tuple)]
    means, sds = np.array([params[k] for k in drawn], dtype=float).reshape(-1, 2).T
    constants = [0.0 if k in drawn else params[k] for k in _COEFS]

    codes = np.empty(starts[-1], dtype=np.int64)
    z = np.empty((starts[-1], len(drawn)))
    as_table = np.full(cfg.blocks, oc.representation == "table")
    for i, (lo, hi) in enumerate(zip(starts[:-1].tolist(), starts[1:].tolist())):
        codes[lo:hi] = _draw_strata(hi - lo, cdf, cfg.complier_floor, rng)
        rng.standard_normal(out=z[lo:hi])  # member by member
        if oc.representation == "mixed":
            as_table[i] = rng.random() < 0.5
    coef = np.repeat(np.array(constants)[:, None], starts[-1], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        # numpy's normal(mean, sd) draws mean + sd * standard_normal()
        coef[[_COEFS.index(k) for k in drawn]] = (means + sds * z).T
    finite = np.logical_and.reduceat(np.isfinite(coef).all(axis=0), starts[:-1])
    # encouragement terms force tables in every block (DgpConfig)
    keyed = oc.z_own != 0.0 or oc.z_peer != 0.0
    # block i's tables end the column at ends[i]: n 2^n entries (n 4^n keyed)
    tabled = np.where(as_table, sizes, 0)
    ends = np.cumsum(tabled << (tabled << keyed))
    table = np.empty(ends[-1])
    # in block order, as drawn: a block's draws are checked before its table
    for i in np.flatnonzero(as_table | ~finite).tolist():
        n, block = sizes[i], coef[:, starts[i]:starts[i + 1]]
        if not finite[i]:  # a draw overflowed
            k, j = np.argwhere(~np.isfinite(block))[0]
            raise InvalidConfig(f"block {i} individual {j}: drawn {_COEFS[k]} is {block[k, j]}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            tables = _tables_from_coef(block, oc.z_own, oc.z_peer)
        if not np.isfinite(tables).all():  # finite terms, overflowing sum
            j, r = np.argwhere(~np.isfinite(tables))[0][:2]
            raise InvalidConfig(f"block {i} individual {j}: outcome table entry at row "
                                f"{r:0{n}b} is not finite (its coefficients overflow)")
        table[ends[i] - tables.size:ends[i]] = tables.ravel()

    d0, d1 = np.array([_PT_BY_STRATUM[ct] for ct in ComplianceType])[codes].T
    structural = np.repeat(~as_table, sizes)
    coef[:, ~structural] = 0.0
    try:
        return Population(starts=starts, d0=d0, d1=d1, structural=structural,
                          z_dependent=~structural & keyed, coef=coef, table=table)
    except ValueError as exc:  # a structural outcome that overflows
        raise InvalidConfig(str(exc)) from None
