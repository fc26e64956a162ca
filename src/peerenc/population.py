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
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ArityMismatch,
    FlagMismatch,
    GenerationFailed,
    InvalidConfig,
    MissingTableEntry,
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


_CLASSIFY = {
    (1, 1): ComplianceType.ALWAYS_TAKER,
    (0, 1): ComplianceType.COMPLIER,
    (0, 0): ComplianceType.NEVER_TAKER,
    (1, 0): ComplianceType.DEFIER,
}


def classify(pt: PotentialTreatment) -> ComplianceType:
    """Compliance stratum of a (d0, d1) pair."""
    return _CLASSIFY[(pt.d0, pt.d1)]


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
        k = treated_peers
        return (
            self.intercept
            + self.direct * own_d
            + self.peer * k
            + self.interaction * own_d * k
            + self.curvature * k * k
            + self.noise
        )


def pack_bits(vec) -> int:
    """Bit-pack a binary vector, most significant bit first (index 0)."""
    out = 0
    for b in vec:
        out = (out << 1) | int(b)
    return out


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

    def value(self, d_vec, z_vec=None) -> float:
        if len(d_vec) != self.n:
            raise ArityMismatch(f"treatment vector length {len(d_vec)} != table arity {self.n}")
        if self.z_dependent:
            if z_vec is None:
                raise ValueError("encouragement-keyed table requires z_vec")
            if len(z_vec) != self.n:
                raise ArityMismatch(f"encouragement vector length {len(z_vec)} != {self.n}")
            return float(self.z_values[pack_bits(d_vec), pack_bits(z_vec)])
        return float(self.values[pack_bits(d_vec)])


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
        no_coef = StructuralOutcome()
        cols = Columns(
            starts=np.cumsum((0,) + self.sizes),
            d0=np.array([ind.pt.d0 for ind in inds], dtype=np.uint8),
            d1=np.array([ind.pt.d1 for ind in inds], dtype=np.uint8),
            structural=~np.array(tables),
            z_dependent=np.array([t and ind.y.z_dependent for t, ind in zip(tables, inds)]),
            coef=np.array([[getattr(no_coef if t else ind.y, f.name) for f in fields(no_coef)]
                           for t, ind in zip(tables, inds)]).T,
        )
        for f in fields(cols):
            getattr(cols, f.name).setflags(write=False)
        return cols


@dataclass(frozen=True)
class Columns:
    """A population's individuals as flat arrays in block order; block i owns
    starts[i]:starts[i + 1]. ``coef`` rows are the StructuralOutcome fields
    in order (intercept, direct, peer, interaction, curvature, noise), zero
    for tables."""

    starts: np.ndarray  # (B + 1,) block offsets
    d0: np.ndarray  # (N,) treatment when unencouraged
    d1: np.ndarray  # (N,) treatment when encouraged
    structural: np.ndarray  # (N,) structural outcome (else a table)
    z_dependent: np.ndarray  # (N,) encouragement-keyed table
    coef: np.ndarray  # (6, N)

    def in_stratum(self, stratum: ComplianceType | None) -> np.ndarray:
        """Mask of the individuals in a compliance stratum (everyone for None)."""
        if stratum is None:
            return np.ones(self.d0.size, dtype=bool)
        pt = _PT_BY_STRATUM[stratum]
        return (self.d0 == pt.d0) & (self.d1 == pt.d1)


def potential_treatment(pop: Population, i: int, j: int, z: int) -> int:
    """Treatment individual (i, j) takes under own encouragement value z."""
    return pop.blocks[i][j].pt.take(z)


def outcome(pop: Population, i: int, j: int, d_vec, z_vec=None) -> float:
    """Potential outcome of individual (i, j) under a block treatment vector.

    ``z_vec`` is consulted only by encouragement-keyed tables; for every
    exclusion-compliant individual the result is independent of it.
    """
    block = pop.blocks[i]
    n = len(block)
    if len(d_vec) != n:
        raise ArityMismatch(f"treatment vector length {len(d_vec)} != block size {n}")
    ind = block[j]
    if isinstance(ind.y, StructuralOutcome):
        own = int(d_vec[j])
        k = int(np.sum(np.asarray(d_vec, dtype=np.int64))) - own
        return ind.y.value(own, k)
    return ind.y.value(d_vec, z_vec)


def stratum_counts(block) -> dict[ComplianceType, int]:
    counts = {ct: 0 for ct in ComplianceType}
    for ind in block:
        counts[classify(ind.pt)] += 1
    return counts


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
    block_reports = []
    warnings = []
    for i, block in enumerate(pop.blocks):
        counts = stratum_counts(block)
        effect = sum(ind.pt.d1 - ind.pt.d0 for ind in block) / len(block)
        rep = BlockValidation(
            index=i,
            size=len(block),
            strata=counts,
            monotone=counts[ComplianceType.DEFIER] == 0,
            one_sided=all(ind.pt.d0 == 0 for ind in block),
            encouragement_effect=effect,
            has_complier=counts[ComplianceType.COMPLIER] > 0,
        )
        block_reports.append(rep)
        if effect == 0.0:
            warnings.append(f"EncouragementIneffective: block {i} has zero effect on uptake")

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
_PT_BY_STRATUM = {
    ComplianceType.ALWAYS_TAKER: PotentialTreatment(1, 1),
    ComplianceType.COMPLIER: PotentialTreatment(0, 1),
    ComplianceType.NEVER_TAKER: PotentialTreatment(0, 0),
    ComplianceType.DEFIER: PotentialTreatment(1, 0),
}

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

    all_inds = [ind for block in blocks for ind in block]
    monotone = all(classify(ind.pt) is not ComplianceType.DEFIER for ind in all_inds)
    one_sided = all(ind.pt.d0 == 0 for ind in all_inds)
    exclusion_ok = not any(
        isinstance(ind.y, TableOutcome) and ind.y.z_dependent for ind in all_inds
    )
    pop = Population(
        blocks=tuple(blocks), monotone=monotone, one_sided=one_sided, exclusion_ok=exclusion_ok
    )
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


def _outcome_to_dict(y: OutcomeFunction) -> dict:
    if isinstance(y, StructuralOutcome):
        return {
            "kind": "structural",
            "intercept": y.intercept,
            "direct": y.direct,
            "peer": y.peer,
            "interaction": y.interaction,
            "curvature": y.curvature,
            "noise": y.noise,
        }
    if y.z_dependent:
        size = 2**y.n
        vals = {
            f"{d:0{y.n}b}|{z:0{y.n}b}": y.z_values[d, z]
            for d in range(size)
            for z in range(size)
        }
        return {"kind": "table_z", "size": y.n, "values": vals}
    vals = {f"{d:0{y.n}b}": y.values[d] for d in range(2**y.n)}
    return {"kind": "table", "size": y.n, "values": vals}


def _outcome_from_dict(d: dict) -> OutcomeFunction:
    kind = d.get("kind")
    if kind == "structural":
        return StructuralOutcome(
            intercept=float(d.get("intercept", 0.0)),
            direct=float(d.get("direct", 0.0)),
            peer=float(d.get("peer", 0.0)),
            interaction=float(d.get("interaction", 0.0)),
            curvature=float(d.get("curvature", 0.0)),
            noise=float(d.get("noise", 0.0)),
        )
    if kind in ("table", "table_z"):
        n = int(d["size"])
        size = 2**n
        entries = d["values"]
        if kind == "table":
            arr = np.full(size, np.nan)
            for key, v in entries.items():
                arr[int(key, 2)] = float(v)
            missing = np.isnan(arr)
            if missing.any():
                first = int(np.argmax(missing))
                raise MissingTableEntry(f"table missing entry for d={first:0{n}b}")
            return TableOutcome(n=n, values=arr)
        arr = np.full((size, size), np.nan)
        for key, v in entries.items():
            dkey, zkey = key.split("|")
            arr[int(dkey, 2), int(zkey, 2)] = float(v)
        missing = np.isnan(arr)
        if missing.any():
            di, zi = np.unravel_index(int(np.argmax(missing)), arr.shape)
            raise MissingTableEntry(f"table missing entry for d={di:0{n}b} z={zi:0{n}b}")
        return TableOutcome(n=n, z_values=arr)
    raise InvalidConfig(f"unknown outcome kind {kind!r}")


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
        flags = {k: bool(data["flags"][k]) for k in ("monotone", "one_sided", "exclusion_ok")}
        raw_blocks = list(data["blocks"])
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"population file missing section: {exc}") from exc
    blocks = []
    for i, raw in enumerate(raw_blocks):
        block = []
        for j, r in enumerate(raw):
            try:
                block.append(Individual(
                    PotentialTreatment(int(r["d0"]), int(r["d1"])),
                    _outcome_from_dict(r["outcome"]),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                why = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise InvalidConfig(f"population block {i} individual {j}: {why}") from None
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
