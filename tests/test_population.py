import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peerenc import _json, popfile
from peerenc.estimands import member_averages
from peerenc.errors import (
    ArityMismatch,
    FlagMismatch,
    GenerationFailed,
    InvalidConfig,
    MissingTableEntry,
)
from peerenc.mechanisms import Mechanism
from peerenc.popfile import load_population, population_from_dict, save_population
from peerenc.population import (
    ComplianceType,
    DgpConfig,
    OutcomeConfig,
    Population,
    build_population,
    structural_value,
    validate,
)
from conftest import make_individual, make_population, person, population, structural, table
from oracles import convert_to_tables, oracle_outcome, oracle_ybar_itt, oracle_ybar_local, \
    population_to_dict, reference_build_population

_STRATUM = {(0, 1): ComplianceType.COMPLIER, (1, 1): ComplianceType.ALWAYS_TAKER,
            (1, 0): ComplianceType.DEFIER, (0, 0): ComplianceType.NEVER_TAKER}


def stratum(pop, u) -> ComplianceType:
    """Compliance stratum of individual u, read from its potential treatments."""
    return _STRATUM[(int(pop.d0[u]), int(pop.d1[u]))]


def block_outcomes(pop, i, d_rows, z_rows=None) -> np.ndarray:
    """Block i's outcomes through ``Population.outcomes``, one row per
    treatment vector in d_rows (and encouragement vector in z_rows); every
    individual outside block i is untreated and unencouraged."""
    block = slice(int(pop.starts[i]), int(pop.starts[i + 1]))
    d = np.zeros((len(d_rows), pop.n_individuals), dtype=np.int8)
    z = np.zeros_like(d)
    d[:, block] = d_rows
    if z_rows is not None:
        z[:, block] = z_rows
    return pop.outcomes(d, z)[:, block]


def test_classify_bijection():
    pop = make_population([["co", "at", "de", "nt"], ["co"]])
    assert [stratum(pop, u) for u in range(4)] == [
        ComplianceType.COMPLIER, ComplianceType.ALWAYS_TAKER, ComplianceType.DEFIER,
        ComplianceType.NEVER_TAKER]
    for ct in ComplianceType:
        assert pop.in_stratum(ct).tolist() == [stratum(pop, u) is ct for u in range(5)]


def test_potential_treatment_lookup():
    pop = make_population([["co", "nt"], ["at", "co"]])
    assert pop.starts.tolist() == [0, 2, 4]
    assert pop.d0.tolist() == [0, 0, 1, 0]
    assert pop.d1.tolist() == [1, 0, 1, 1]


def test_validate_all_compliers():
    pop = make_population([["co", "co"], ["co", "co", "co"]])
    report = validate(pop)
    assert report.monotone and report.one_sided and report.exclusion_ok
    assert all(e == 1.0 for e in report.effects)
    assert not report.warnings


def test_validate_defier_with_monotone_flag():
    pop = make_population([["de", "co"], ["co"]])
    assert not pop.monotone and not validate(pop).monotone
    data = population_to_dict(pop)
    data["flags"]["monotone"] = True
    with pytest.raises(FlagMismatch, match=r"^flag monotone=True but the data say False$"):
        population_from_dict(data)


def test_validate_flags_must_match_in_both_directions():
    data = population_to_dict(make_population([["co"], ["co"]]))
    data["flags"]["monotone"] = False
    with pytest.raises(FlagMismatch, match=r"^flag monotone=False but the data say True$"):
        population_from_dict(data)


def test_validate_all_never_takers_warns_ineffective():
    pop = make_population([["nt", "nt"], ["nt"]])
    report = validate(pop)
    assert all(e == 0.0 for e in report.effects)
    assert any("EncouragementIneffective" in w for w in report.warnings)


def test_structural_outcome_formula():
    coef = (0.0, 2.0, 0.5, 0.0, 0.0, 0.0)  # intercept, direct, peer, interaction, curvature, noise
    assert structural_value(coef, 1, 2) == pytest.approx(3.0, abs=0)
    assert structural_value(coef, 0, 4) == pytest.approx(2.0, abs=0)


def test_outcome_structural_anonymous_in_peers():
    pop = make_population([["co", "co", "co", "nt"], ["co"]],
                          direct=2.0, peer=0.5)
    rows = [(1, 1, 0, 1)] + [(1, *perm) for perm in itertools.permutations((1, 0, 1))]
    base, *others = block_outcomes(pop, 0, rows)[:, 0]
    for value in others:
        assert value == pytest.approx(base, abs=0)


def test_outcome_ignores_encouragements_when_exclusion_ok():
    pop = make_population([["co", "nt"], ["at", "co"]], direct=1.5, peer=0.25)
    d = (1, 0)
    z_rows = list(itertools.product((0, 1), repeat=2))
    vals = set(block_outcomes(pop, 0, [d] * len(z_rows), z_rows)[:, 0].tolist())
    assert len(vals) == 1


def test_constant_table_returns_constant():
    c = 4.25
    constant = table(np.full(4, c))
    pop = population([[person("co", constant), person("nt", constant)],
                      [person("co", structural())]])
    for value in block_outcomes(pop, 0, list(itertools.product((0, 1), repeat=2)))[:, 0]:
        assert value == c


def _tabled_pair():
    """Two blocks of two members; block 0 holds a table, block 1 is structural."""
    return population([[person("co", table([1.0, 0.0, 2.0, 3.0])), person("nt", structural())],
                       [person("co", structural()), person("co", structural())]])


def _table_coef(row: int, value: float) -> np.ndarray:
    """``_tabled_pair``'s coefficients with the table member's ``row`` set
    to value."""
    coef = np.array(_tabled_pair().coef)
    coef[row, 0] = value
    return coef


def test_table_completeness_enforced():
    pop = _tabled_pair()
    entries = np.array(pop.table)
    entries[1] = np.nan
    with pytest.raises(MissingTableEntry, match="block 0: table has 1 missing entries"):
        pop.replace(table=entries)
    entries[1] = np.inf
    with pytest.raises(ValueError, match="block 0: table entries must be finite"):
        pop.replace(table=entries)
    with pytest.raises(ArityMismatch):
        pop.replace(table=np.zeros(3))
    data = population_to_dict(pop)
    del data["blocks"][0][0]["outcome"]["values"]["01"]
    with pytest.raises(MissingTableEntry):
        population_from_dict(data)


def test_population_shape_validation():
    pop = _tabled_pair()
    with pytest.raises(ValueError, match="at least 2 blocks"):
        pop.replace(starts=[0, 4])
    with pytest.raises(ValueError, match="block 1 is empty"):
        pop.replace(starts=[0, 4, 4])
    with pytest.raises(ArityMismatch):
        pop.replace(table=np.zeros(8))
    with pytest.raises(ArityMismatch):
        pop.replace(table=np.zeros((2, 2)))
    data = population_to_dict(pop)
    data["blocks"][0][0]["outcome"] = table(np.zeros(8))
    with pytest.raises(ArityMismatch):
        population_from_dict(data)


@pytest.mark.parametrize("change, error, match", [
    (dict(d0=[2, 0, 0, 0]), ValueError, "block 0 individual 0: potential treatments"),
    (dict(d1=[1, 1, 1, -1]), ValueError, "block 1 individual 1"),
    (dict(d0=[0, 0, 0]), ArityMismatch, "d0 needs shape"),
    (dict(coef=np.zeros((5, 4))), ArityMismatch, "coef needs shape"),
    (dict(z_dependent=[False, False, True, False]), ValueError, "block 1 individual 0"),
    (dict(table=np.zeros(0)), ArityMismatch, r"table needs 4 entries .*, got shape \(0,\)"),
    (dict(z_dependent=[True, False, False, False]), ArityMismatch, "table needs 16 entries"),
    (dict(starts=np.array([1, 3, 5])), ValueError, "block offsets must start at 0, got 1"),
], ids=["d0-2", "d1-minus-1", "d0-short", "coef-rows", "structural-z-keyed", "table-missing",
        "z-keyed-without-z-axis", "starts-offset"])
def test_population_constructor_checks(change, error, match):
    with pytest.raises(error, match=match):
        _tabled_pair().replace(**change)


@pytest.mark.parametrize("change, match", [
    (dict(starts=np.array([0, 2.9, 4])), r"integer offsets of at least 2 blocks, got float64"),
    (dict(structural=[0, 1, 2, 1]), r"block 1 individual 0: outcome flags .* got \(2, 0\)"),
    (dict(structural=[0, 0.5, 1, 1]), r"block 0 individual 1: outcome flags .* got \(0.5, 0.0\)"),
    (dict(z_dependent=[0, 0, 0, 2]), r"block 1 individual 1: outcome flags .* got \(1, 2\)"),
    (dict(z_dependent=[0.5, 0, 0, 0]), r"block 0 individual 0: outcome flags .* got \(0.0, 0.5\)"),
    (dict(coef=_table_coef(1, 2.5)), r"block 0 individual 0: a table member's coefficients"
                                     r" must be zero, got \(0.0, 2.5, 0.0, 0.0, 0.0, 0.0\)"),
    (dict(coef=_table_coef(2, np.inf)), r"block 0 individual 0: .* got \(0.0, 0.0, inf,"),
    (dict(coef=_table_coef(5, np.nan)), r"block 0 individual 0: .* got \(.*, nan\)"),
], ids=["starts-fractional", "structural-2", "structural-half", "z-dependent-2",
        "z-dependent-half", "table-coef", "table-coef-inf", "table-coef-nan"])
def test_population_refuses_what_it_would_coerce(change, match):
    with pytest.raises(ValueError, match=match) as refused:
        _tabled_pair().replace(**change)
    assert "\n" not in str(refused.value)


def test_population_arrays_are_read_only():
    pop = _tabled_pair()
    for arr in (pop.starts, pop.d0, pop.d1, pop.structural, pop.z_dependent, pop.coef,
                pop.table, pop.table_start):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_outcome_bounds_are_each_individuals_largest_outcome():
    pop = population([
        [person("co", structural(intercept=-1.0, direct=2.0, peer=0.5, interaction=-0.25,
                                 curvature=0.1, noise=0.3)),
         person("nt", table([0.5, -4.0, 1.0, 2.0]))],
        [person("at", structural(intercept=3.0))],
    ])
    # one peer in block 0: 1 + 2 + (0.5 + 0.25) * 1 + 0.1 * 1 + 0.3
    assert pop.bound.tolist() == pytest.approx([4.15, 4.0, 3.0], rel=1e-15)
    with pytest.raises(ValueError):
        pop.bound[0] = 0.0


@pytest.mark.parametrize("outcome", [structural(intercept=5e307), table([5e307, -6e307])],
                         ids=["structural", "table"])
def test_a_population_whose_outcome_sums_overflow_is_refused(outcome):
    """Every outcome is finite, but twice the running sum of the bounds
    leaves the float range in block 1 of 3."""
    with pytest.raises(InvalidConfig, match="block 1: the outcomes overflow"):
        population([[person("co", outcome)] for _ in range(3)])


def test_table_members_fill_one_flat_column():
    """Table members' entries follow one another in one column, 2^n per
    plain member and 4^n per encouragement-keyed one; structural members
    have empty extents, keep their coefficients, and table members get zero
    ones."""
    pop = _tabled_pair()
    assert pop.structural.tolist() == [False, True, True, True]
    assert pop.table.tolist() == [1.0, 0.0, 2.0, 3.0]
    assert pop.table_start.tolist() == [0, 4, 4, 4, 4]
    assert not pop.coef[:, 0].any()
    keyed = population([[person("co", table(np.arange(16.0).reshape(4, 4))),
                         person("nt", table([1.0, 2.0, 3.0, 4.0]))],
                        [make_individual("co")]])
    assert keyed.table.tolist() == [*range(16), 1.0, 2.0, 3.0, 4.0] and not keyed.exclusion_ok
    assert keyed.table_start.tolist() == [0, 16, 20, 20]
    assert population_to_dict(keyed)["blocks"][0][1]["outcome"] == table([1.0, 2.0, 3.0, 4.0])


def test_flags_are_derived_from_the_data():
    pop = make_population([["co", "nt"], ["at", "co"]])
    assert (pop.monotone, pop.one_sided, pop.exclusion_ok) == (True, False, True)
    keyed = _one_table(np.arange(16.0), keyed=True)
    assert (keyed.monotone, keyed.one_sided, keyed.exclusion_ok) == (True, True, False)
    with pytest.raises(TypeError):
        pop.replace(monotone=False)


def test_table_extents_of_large_blocks_do_not_overflow():
    """A table member of a size-70 block claims 2^70 entries: the length
    check refuses it without forming an int64 extent, and a structural
    block of 70 beside a table block is evaluated without packing its rows."""
    pop = make_population([["co"] * 70, ["co", "nt"]], direct=1.0, peer=0.5)
    with pytest.raises(ArityMismatch, match="table needs 1180591620717411303424 entries"):
        pop.replace(structural=np.arange(72) != 0)
    coef = np.array(pop.coef)
    coef[:, 71] = 0.0  # a table member has no coefficients
    mixed = pop.replace(structural=np.arange(72) < 71, coef=coef, table=[1.0, 2.0, 3.0, 4.0])
    assert mixed.table_start.tolist() == [0] * 72 + [4]
    d = np.zeros((2, 72), dtype=np.int8)
    d[:, :70] = 1
    d[1, 71] = 1
    y = mixed.outcomes(d, np.zeros_like(d))
    assert y[:, :70].tolist() == [[1.0 + 0.5 * 69] * 70] * 2
    assert y[:, 70:].tolist() == [[0.0, 1.0], [0.5, 2.0]]


def _basic_cfg(**overrides) -> DgpConfig:
    base = dict(
        blocks=10,
        block_size=5,
        strata=(0.2, 0.5, 0.3, 0.0),
        outcome=OutcomeConfig(direct=2.0, peer=0.5, noise_sd=1.0),
        monotone=True,
    )
    base.update(overrides)
    return DgpConfig(**base)


class _NoDraws:
    """An rng that fails the test on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the population size was checked")


@pytest.mark.parametrize("overrides, message", [
    (dict(blocks=10**13), "exceed the bound of 1048576 individuals"),
    (dict(blocks=2**18 + 1, block_size=4), "exceed the bound of 1048576 individuals"),
    (dict(blocks=2, block_size=(1, 2**19 + 1)), "exceed the bound of 1048576 individuals"),
    (dict(blocks=2731, block_size=12, outcome=OutcomeConfig(representation="mixed")),
     "need 134234112 table entries, over the bound of 134217728"),
    (dict(blocks=3, block_size=11, strata=(0.0, 1.0, 0.0, 0.0),
          outcome=OutcomeConfig(representation="table", z_own=0.5)),
     "need 138412032 table entries, over the bound of 134217728"),
], ids=["blocks-1e13", "individuals", "largest-block", "mixed-tables", "keyed-tables"])
def test_population_size_is_bounded_before_any_draw(overrides, message):
    with pytest.raises(InvalidConfig, match=message):
        build_population(_basic_cfg(**overrides), _NoDraws())


def test_population_size_bounds_admit_their_limits():
    """A population exactly at either bound passes the size checks."""
    _basic_cfg(blocks=2**18, block_size=4)
    _basic_cfg(blocks=2730, block_size=12, outcome=OutcomeConfig(representation="table"))
    _basic_cfg(blocks=2, block_size=11, strata=(0.0, 1.0, 0.0, 0.0),
               outcome=OutcomeConfig(representation="table", z_own=0.5))


@pytest.mark.parametrize("changes, error, message", [
    (dict(blocks=1), InvalidConfig, "config dgp.blocks: need at least 2 blocks, got 1"),
    (dict(block_size=(3, 2)), InvalidConfig, "config dgp.block_size: bad block size range (3, 2)"),
    (dict(strata=(0.5, 0.0, 0.0, 0.0)), InvalidConfig, "config dgp.strata: "),
    (dict(strata=(0.2, 0.4, 0.3, 0.1)), InvalidConfig, "config dgp.monotone: "),
    (dict(one_sided=True), InvalidConfig, "config dgp.one_sided: "),
    (dict(outcome=OutcomeConfig(direct=(1.0, -1.0))), InvalidConfig,
     "config dgp.outcome.direct: a standard deviation must be >= 0, got -1.0"),
    (dict(outcome=OutcomeConfig(noise_sd=-1.0)), InvalidConfig, "config dgp.outcome.noise_sd: "),
    (dict(outcome=OutcomeConfig(representation="tabel")), InvalidConfig,
     "config dgp.outcome.representation: "),
    (dict(outcome=OutcomeConfig(z_own=0.5)), InvalidConfig, "config dgp.outcome: "),
    (dict(block_size=13, outcome=OutcomeConfig(representation="table")), InvalidConfig,
     "config dgp.block_size: table representation is capped at block size 12"),
    (dict(blocks=2**18 + 1, block_size=4), InvalidConfig, "config dgp: "),
    (dict(strata=(0.5, 0.0, 0.5, 0.0)), GenerationFailed, "config dgp.complier_floor: "),
], ids=["one-block", "block-size-range", "strata-sum", "monotone-with-defiers",
        "one-sided-with-always-takers", "negative-sd", "negative-noise-sd",
        "representation-unknown", "z-own-structural", "table-size-cap", "individuals-bound",
        "no-complier-mass"])
def test_a_dgp_config_exists_only_validated(changes, error, message):
    """The constructor refuses a config no population satisfies, and so
    does replace, which goes through it."""
    base = _basic_cfg()
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        DgpConfig(**{**dict(zip(DgpConfig._fields, base._values())), **changes})
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        base.replace(**changes)


def _columns_for(starts, table=np.zeros(0)) -> dict:
    """A Population's arguments: the offsets and columns of two structural
    compliers with zero coefficients, so only the bounds and shapes decide."""
    return dict(starts=np.asarray(starts), d0=np.zeros(2, np.uint8), d1=np.ones(2, np.uint8),
                structural=np.ones(2, bool), z_dependent=np.zeros(2, bool),
                coef=np.zeros((6, 2)), table=table)


def test_the_constructor_refuses_populations_over_either_bound():
    """One individual or one table entry over its bound is refused before
    the columns are read; exactly at a bound the next check speaks (a
    column's shape, or the entry count the members need: none). The table
    columns are zero-stride views, so neither holds the memory its size
    names."""
    def column(size):
        return np.broadcast_to(np.zeros(1), (size,))

    with pytest.raises(ArityMismatch, match=r"d0 needs shape \(1048576,\)"):
        Population(**_columns_for([0, 1, 2**20]))
    with pytest.raises(ValueError, match="1048577 individuals exceed the bound of 1048576"):
        Population(**_columns_for([0, 1, 2**20 + 1]))
    with pytest.raises(ArityMismatch, match=r"table needs 0 entries .* got shape \(134217728,\)"):
        Population(**_columns_for([0, 1, 2], column(2**27)))
    with pytest.raises(ValueError, match="134217729 table entries exceed the bound of 134217728"):
        Population(**_columns_for([0, 1, 2], column(2**27 + 1)))


def test_build_population_basic():
    pop = build_population(_basic_cfg(), np.random.default_rng(3))
    assert pop.n_blocks == 10
    assert pop.sizes == (5,) * 10
    assert pop.monotone and pop.exclusion_ok
    report = validate(pop)
    assert all(n > 0 for n in report.strata[ComplianceType.COMPLIER])


def test_build_population_defiers_with_monotone_is_invalid():
    with pytest.raises(InvalidConfig):
        build_population(
            _basic_cfg(strata=(0.2, 0.4, 0.3, 0.1)), np.random.default_rng(0)
        )


def test_build_population_one_sided_guard():
    with pytest.raises(InvalidConfig):
        build_population(
            _basic_cfg(strata=(0.2, 0.5, 0.3, 0.0), one_sided=True),
            np.random.default_rng(0),
        )
    pop = build_population(
        _basic_cfg(strata=(0.0, 0.6, 0.4, 0.0), one_sided=True, monotone=None),
        np.random.default_rng(0),
    )
    assert pop.one_sided


def test_build_population_complier_floor():
    cfg = _basic_cfg(strata=(0.45, 0.1, 0.45, 0.0), blocks=30, block_size=2)
    pop = build_population(cfg, np.random.default_rng(8))
    for lo, hi in zip(pop.starts[:-1], pop.starts[1:]):
        assert any(stratum(pop, u) is ComplianceType.COMPLIER for u in range(lo, hi))
    with pytest.raises(GenerationFailed):
        build_population(_basic_cfg(strata=(0.5, 0.0, 0.5, 0.0), monotone=None),
                         np.random.default_rng(0))


def test_build_population_deterministic():
    a = build_population(_basic_cfg(), np.random.default_rng(42))
    b = build_population(_basic_cfg(), np.random.default_rng(42))
    assert population_to_dict(a) == population_to_dict(b)


def test_build_population_z_tables_break_exclusion():
    cfg = _basic_cfg(
        block_size=3,
        outcome=OutcomeConfig(representation="table", direct=2.0, peer=0.5, z_own=0.7),
        monotone=True,
    )
    pop = build_population(cfg, np.random.default_rng(5))
    assert not pop.exclusion_ok
    z0, z1 = block_outcomes(pop, 0, [(1, 0, 0)] * 2, [(0, 0, 0), (1, 0, 0)])[:, 0]
    assert z1 - z0 == pytest.approx(0.7, abs=1e-12)


def test_build_population_z_tables_require_table_representation():
    with pytest.raises(InvalidConfig):
        build_population(
            _basic_cfg(outcome=OutcomeConfig(representation="structural", z_own=0.5)),
            np.random.default_rng(0),
        )


def test_stratum_counts_partition_population(rng):
    cfg = _basic_cfg(strata=(0.25, 0.25, 0.25, 0.25), monotone=None, complier_floor=False)
    pop = build_population(cfg, rng)
    total = 0
    report = validate(pop)
    for i, (lo, hi) in enumerate(zip(pop.starts[:-1], pop.starts[1:])):
        strata = [stratum(pop, u) for u in range(lo, hi)]
        counts = {ct: report.strata[ct][i] for ct in ComplianceType}
        assert counts == {ct: strata.count(ct) for ct in ComplianceType}
        assert sum(counts.values()) == hi - lo
        total += sum(counts.values())
    assert total == pop.n_individuals


def test_monotone_uptake_effect_equals_complier_fraction(rng):
    pop = build_population(_basic_cfg(), rng)
    report = validate(pop)
    for i, (lo, hi) in enumerate(zip(pop.starts[:-1], pop.starts[1:])):
        frac = sum(stratum(pop, u) is ComplianceType.COMPLIER for u in range(lo, hi)) / (hi - lo)
        assert report.strata[ComplianceType.COMPLIER][i] / (hi - lo) == frac
        assert report.effects[i] == pytest.approx(frac, abs=0)


@given(
    blocks=st.integers(min_value=2, max_value=6),
    size=st.integers(min_value=1, max_value=6),
    mix=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    rep=st.sampled_from(["structural", "table", "mixed"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_build_then_validate_round_trip(blocks, size, mix, rep, seed):
    total = sum(mix)
    strata = tuple(p / total for p in mix)
    cfg = DgpConfig(
        blocks=blocks,
        block_size=size,
        strata=strata,
        outcome=OutcomeConfig(
            representation=rep, direct=(1.0, 0.5), peer=(0.3, 0.2), noise_sd=0.5
        ),
    )
    pop = build_population(cfg, np.random.default_rng(seed))
    report = validate(pop)
    assert sum(report.sizes) == pop.n_individuals


_PARAM = st.one_of(st.floats(-3.0, 3.0), st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 2.0)))


@given(
    rep=st.sampled_from(["structural", "table", "mixed"]),
    params=st.tuples(*[_PARAM] * 5),
    noise_sd=st.sampled_from([0.0, 0.5, 1.7]),
    z=st.sampled_from([(0.0, 0.0), (0.5, 0.0), (0.0, -0.25), (0.3, 0.7)]),
    blocks=st.integers(min_value=2, max_value=5),
    block_size=st.one_of(st.integers(min_value=1, max_value=4),
                         st.tuples(st.integers(1, 2), st.integers(2, 4))),
    mix=st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.floats(0.0, 1.0),
                  st.floats(0.0, 1.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
# complier mass 1e-12 in blocks of 2: every block's 100 redraws find no
# complier, so the floor places one directly
@example(rep="structural", params=(1.0, 2.0, 0.5, 0.0, 0.0), noise_sd=0.5, z=(0.0, 0.0),
         blocks=3, block_size=2, mix=(0.5, 1e-12, 0.5, 0.0), seed=1)
def test_build_matches_the_scalar_draw_loop_bitwise(tmp_path_factory, rep, params, noise_sd, z,
                                                   blocks, block_size, mix, seed):
    """build_population draws a block's coefficients at once; its arrays,
    its saved bytes and the stream position it leaves equal the scalar
    per-individual loop's, bit for bit."""
    z_own, z_peer = z if rep == "table" else (0.0, 0.0)  # encouragement terms need tables
    cfg = DgpConfig(blocks=blocks, block_size=block_size, strata=tuple(p / sum(mix) for p in mix),
                    outcome=OutcomeConfig(rep, *params, noise_sd=noise_sd, z_own=z_own,
                                          z_peer=z_peer))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pop, expected = build_population(cfg, rng), reference_build_population(cfg, reference_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    for name in ("starts", "d0", "d1", "structural", "z_dependent", "coef", "table",
                 "table_start", "bound"):
        got, want = getattr(pop, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (pop.monotone, pop.one_sided, pop.exclusion_ok) == \
        (expected.monotone, expected.one_sided, expected.exclusion_ok)
    directory = tmp_path_factory.mktemp("build")
    save_population(pop, directory / "built.json")
    save_population(expected, directory / "reference.json")
    assert (directory / "built.json").read_bytes() == (directory / "reference.json").read_bytes()


# a negative sd is refused, so the sds lean nonnegative to let configs through
_SD = st.floats(-1.0, 10.0)
_SPEC = st.one_of(st.floats(-10.0, 10.0), st.tuples(st.floats(-10.0, 10.0), _SD))
_FLAG = st.sampled_from([None, False, True])


@given(
    blocks=st.integers(2, 6),
    block_size=st.one_of(st.integers(1, 6), st.tuples(st.integers(1, 3), st.integers(1, 6))),
    mass=st.tuples(*[st.integers(0, 2)] * 4).filter(any),
    rep=st.sampled_from(["structural", "table", "mixed"]),
    params=st.tuples(*[_SPEC] * 5),
    noise_sd=_SD,
    z=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))),
    monotone=_FLAG,
    one_sided=_FLAG,
    complier_floor=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_an_accepted_config_always_generates(blocks, block_size, mass, rep, params, noise_sd, z,
                                             monotone, one_sided, complier_floor, seed):
    """The DgpConfig constructor refuses a config or build_population
    generates a population honouring every flag it requests."""
    try:
        cfg = DgpConfig(blocks=blocks, block_size=block_size,
                        strata=tuple(m / sum(mass) for m in mass),
                        outcome=OutcomeConfig(rep, *params, noise_sd=noise_sd, z_own=z[0],
                                              z_peer=z[1]),
                        monotone=monotone, one_sided=one_sided, complier_floor=complier_floor)
    except (InvalidConfig, GenerationFailed):
        return
    pop = build_population(cfg, np.random.default_rng(seed))
    assert pop.n_blocks == blocks
    lo, hi = block_size if isinstance(block_size, tuple) else (block_size, block_size)
    assert all(lo <= n <= hi for n in pop.sizes)
    assert pop.monotone or not monotone
    assert pop.one_sided or not one_sided
    compliers = np.add.reduceat(pop.in_stratum(ComplianceType.COMPLIER), pop.starts[:-1])
    assert compliers.all() or not complier_floor


def test_serialization_round_trip(tmp_path, rng):
    cfg = _basic_cfg(outcome=OutcomeConfig(representation="mixed", direct=(2.0, 0.5),
                                           peer=0.5, noise_sd=1.0), block_size=4)
    pop = build_population(cfg, rng)
    path = tmp_path / "pop.json"
    save_population(pop, path)
    loaded = load_population(path)
    assert population_to_dict(loaded) == population_to_dict(pop)
    # byte-identical rewrite
    save_population(loaded, tmp_path / "pop2.json")
    assert (tmp_path / "pop2.json").read_bytes() == path.read_bytes()


def test_load_rejects_tampered_flags(tmp_path, rng):
    pop = build_population(_basic_cfg(), rng)
    data = population_to_dict(pop)
    data["flags"]["one_sided"] = True  # population has always-takers
    with pytest.raises(FlagMismatch):
        population_from_dict(data)


def test_load_rejects_sparse_table(tmp_path):
    pop = make_population([["co", "nt"], ["co"]])
    data = population_to_dict(convert_to_tables(pop))
    del data["blocks"][0][0]["outcome"]["values"]["01"]
    with pytest.raises(MissingTableEntry):
        population_from_dict(data)


def test_convert_to_tables_preserves_outcomes(rng):
    pop = build_population(_basic_cfg(block_size=4), rng)
    tabled = convert_to_tables(pop)
    for i, n in enumerate(pop.sizes):
        d_rows = list(itertools.product((0, 1), repeat=n))
        assert block_outcomes(tabled, i, d_rows) == pytest.approx(
            block_outcomes(pop, i, d_rows), abs=1e-12
        )


def test_population_json_is_plain_data(rng):
    pop = build_population(_basic_cfg(block_size=3), rng)
    text = json.dumps(population_to_dict(pop), sort_keys=True)
    assert "NaN" not in text


@pytest.mark.parametrize("kind, n", [("table", 20), ("table_z", 10)])
def test_table_entry_count_is_checked_before_its_keys(kind, n):
    """A table with no entries is refused before its 2^20 (4^10 when
    encouragement-keyed) row keys are built: the loader's peak allocation
    stays small."""
    rows = 2**n if kind == "table" else 4**n
    data = {"flags": {"monotone": True, "one_sided": True, "exclusion_ok": kind == "table"},
            "blocks": [[make_individual("co") for _ in range(n)], [make_individual("co")]]}
    data["blocks"][0][0]["outcome"] = {"kind": kind, "size": n, "values": {}}
    tracemalloc.start()
    try:
        with pytest.raises(MissingTableEntry, match=f"0 of its {rows} entries"):
            population_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def test_table_with_an_extra_entry_is_invalid():
    data = population_to_dict(_tabled_pair())
    data["blocks"][0][0]["outcome"]["values"]["100"] = 1.0
    with pytest.raises(InvalidConfig, match="'100' is not a row"):
        population_from_dict(data)


def test_encouragement_keyed_keys_are_not_retained():
    """Loading and saving an encouragement-keyed table keeps none of its 4^n
    "d|z" keys alive afterwards; only the 2^n plain row keys are cached."""
    n = 7
    data = {"flags": {"monotone": True, "one_sided": True, "exclusion_ok": False},
            "blocks": [[person("co", table(np.arange(4.0**n).reshape(2**n, 2**n)))]
                       + [make_individual("co") for _ in range(n - 1)],
                       [make_individual("co")]]}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        population_to_dict(population_from_dict(data))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 200_000, retained  # the 4^7 keys alone take over 1 MB


def test_table_key_that_is_not_a_string_is_invalid():
    data = population_to_dict(_tabled_pair())
    values = data["blocks"][0][0]["outcome"]["values"]
    values[7] = 1.0
    with pytest.raises(InvalidConfig, match="not a row"):
        population_from_dict(data)


# --------------------------------------------------------------------------
# Population file bytes: save_population against the stdlib encoder
# --------------------------------------------------------------------------

def _stdlib_bytes(pop) -> bytes:
    """The population file as the stdlib encoder writes the document."""
    return (json.dumps(population_to_dict(pop), sort_keys=True, indent=1) + "\n").encode()


def _one_table(values, keyed=False):
    """A population whose block 0 member 0 holds the given table entries
    (2^n of them, 4^n when keyed), next to structural members."""
    values = np.asarray(values, dtype=float)
    n = (values.size.bit_length() - 1) // (2 if keyed else 1)
    entries = values.reshape(2**n, 2**n) if keyed else values
    return population([[person("co", table(entries))] + [make_individual("co")] * (n - 1),
                       [make_individual("co"), make_individual("nt")]])


def _mixed_block(rng):
    """Structural, plain-table and encouragement-keyed members in one block
    (its tables get a z axis), beside a structural block."""
    return population([[person("co", table(rng.normal(size=8))),
                        person("nt", table(rng.normal(size=(8, 8)))),
                        make_individual("at", rng)],
                       [make_individual("co", rng), make_individual("nt", rng)]])


_SAVED_POPULATIONS = {
    "structural": lambda rng: build_population(_basic_cfg(), rng),
    "table": lambda rng: build_population(
        _basic_cfg(outcome=OutcomeConfig(representation="table", direct=(2.0, 0.5), peer=0.3,
                                         noise_sd=1.0)), rng),
    "encouragement-keyed": lambda rng: build_population(
        _basic_cfg(block_size=3, strata=(0.0, 0.7, 0.3, 0.0),
                   outcome=OutcomeConfig(representation="table", direct=2.0, noise_sd=1.0,
                                         z_own=0.5, z_peer=-0.25)), rng),
    "mixed": lambda rng: build_population(
        _basic_cfg(block_size=(1, 5), outcome=OutcomeConfig(representation="mixed",
                                                            direct=(2.0, 0.5), noise_sd=1.0)),
        rng),
    "mixed-in-one-block": _mixed_block,
    "signed-zeros": lambda rng: _one_table([0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0, 0.0]),
    "all-distinct": lambda rng: _one_table(rng.normal(size=32) * 10.0 ** rng.integers(-30, 30, 32)),
    "all-distinct-keyed": lambda rng: _one_table(rng.normal(size=64), keyed=True),
    "reprs": lambda rng: _one_table([5e-324, 1e16, 1e22, 2.0, -1.5e-07, 2.0, 1e22, 5e-324]),
}


@pytest.mark.parametrize("name", list(_SAVED_POPULATIONS))
def test_saved_bytes_equal_the_stdlib_encoder(tmp_path, rng, name):
    """The population file is byte for byte the sorted, indent-1 JSON of
    ``population_to_dict`` with a trailing newline."""
    pop = _SAVED_POPULATIONS[name](rng)
    path = tmp_path / "pop.json"
    save_population(pop, path)
    assert path.read_bytes() == _stdlib_bytes(pop)
    assert population_to_dict(load_population(path)) == population_to_dict(pop)


def test_saving_holds_a_fraction_of_the_file_in_memory(tmp_path, rng):
    """save_population streams the file: the memory it allocates is bounded
    by one member's table text, not by the file (a whole-file text would
    alone take the file's size)."""
    pop = build_population(_basic_cfg(
        blocks=4, block_size=10, strata=(0.0, 1.0, 0.0, 0.0),
        outcome=OutcomeConfig(representation="table", direct=(2.0, 0.5), noise_sd=1.0)), rng)
    path = tmp_path / "pop.json"
    save_population(pop, path)
    size = path.stat().st_size
    assert size >= 1 << 20
    tracemalloc.start()
    try:
        save_population(pop, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 4
    assert path.read_bytes() == _stdlib_bytes(pop)


_LABEL = st.sampled_from(["at", "co", "nt", "de"])
_KIND = st.sampled_from(["structural", "table", "table_z"])
_MEMBER = st.tuples(_LABEL, _KIND)


def _random_outcome(kind: str, n: int, rng) -> dict:
    if kind == "structural":
        return structural(**dict(zip(("intercept", "direct", "peer", "interaction", "curvature",
                                      "noise"), rng.normal(size=6).tolist())))
    return table(rng.normal(size=(2**n,) if kind == "table" else (2**n, 2**n)))


@given(
    # block 0 mixes all three kinds; the others draw theirs freely
    first=st.permutations(["structural", "table", "table_z"]),
    extra=st.lists(_KIND, max_size=1),
    strata=st.lists(_LABEL, min_size=4, max_size=4),
    blocks=st.lists(st.lists(_MEMBER, min_size=1, max_size=4), min_size=1, max_size=3),
    p=st.floats(0.05, 0.95),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_mixed_blocks_round_trip_and_match_the_oracles(tmp_path_factory, first, extra, strata,
                                                       blocks, p, seed):
    """Blocks of up to 4 that mix structural, plain-table and keyed-table
    members: the file's document loads back every column, the saved bytes
    are the stdlib encoder's, and outcomes and the exact kernel match the
    oracles on random treatment and encouragement rows."""
    rng = np.random.default_rng(seed)
    members = [[*zip(strata, first + extra)], *blocks]
    pop = population([[person(label, _random_outcome(kind, len(block), rng))
                       for label, kind in block] for block in members])

    loaded = population_from_dict(population_to_dict(pop))
    for name in ("starts", "d0", "d1", "structural", "z_dependent", "coef", "table",
                 "table_start", "bound"):
        got, want = getattr(loaded, name), getattr(pop, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    path = tmp_path_factory.mktemp("mixed") / "pop.json"
    save_population(pop, path)
    assert path.read_bytes() == _stdlib_bytes(pop)

    d = rng.integers(0, 2, size=(3, pop.n_individuals), dtype=np.int8)
    z = rng.integers(0, 2, size=d.shape, dtype=np.int8)
    y = pop.outcomes(d, z)
    mech = Mechanism("phi", p)
    avg = member_averages(pop, mech)
    for i, (lo, hi) in enumerate(zip(pop.starts[:-1].tolist(), pop.starts[1:].tolist())):
        for j, u in enumerate(range(lo, hi)):
            for r in range(d.shape[0]):
                assert y[r, u] == oracle_outcome(pop, i, j, d[r, lo:hi], z[r, lo:hi])
            for v in (0, 1):
                assert avg.itt[v, u] == pytest.approx(oracle_ybar_itt(pop, i, j, v, mech),
                                                      rel=1e-12, abs=1e-12)
                assert avg.local[v, u] == pytest.approx(oracle_ybar_local(pop, i, j, v, mech),
                                                        rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------
# Population file loading: table entries in saved order and otherwise
# --------------------------------------------------------------------------

_WHERE = "population block 0 individual 0"


@pytest.mark.parametrize("keyed", [False, True], ids=["table", "table_z"])
@pytest.mark.parametrize("bad, message", [
    (True, "table entry {key!r}: expected a finite number, got True"),
    ("0.5", "table entry {key!r}: expected a finite number, got '0.5'"),
    (float("inf"), "table entry {key!r}: expected a finite number, got inf"),
    (float("nan"), "table entry {key!r}: expected a finite number, got nan"),
    (10**400, "table entry {key!r}: expected a finite number, got 1" + "0" * 17 + "..."
     + "0" * 19),
], ids=["true", "string", "infinity", "nan", "huge-int"])
def test_bad_entry_in_a_saved_order_table_keeps_its_error(tmp_path, keyed, bad, message):
    """A table whose keys are in saved order, with one entry that is not a
    finite number, fails with the same error as a table read key by key."""
    pop = _one_table(np.arange(16.0 if keyed else 4.0), keyed=keyed)
    data = population_to_dict(pop)
    key = "10|01" if keyed else "10"
    values = data["blocks"][0][0]["outcome"]["values"]
    assert list(values) == sorted(values)
    values[key] = bad
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(data))  # true, "0.5", Infinity, NaN, a 401-digit integer
    with pytest.raises(InvalidConfig) as exc:
        load_population(path)
    assert type(exc.value) is InvalidConfig
    assert str(exc.value) == f"{_WHERE}: " + message.format(key=key)


def test_table_keys_in_any_order_load_the_same_entries(tmp_path, rng):
    pop = _mixed_block(rng)
    data = population_to_dict(pop)
    for member in (0, 1):
        values = data["blocks"][0][member]["outcome"]["values"]
        keys = list(values)
        shuffled = {keys[k]: values[keys[k]] for k in rng.permutation(len(keys))}
        assert list(shuffled) != keys
        data["blocks"][0][member]["outcome"]["values"] = shuffled
    loaded = population_from_dict(data)
    assert np.array_equal(loaded.table, pop.table)
    save_population(loaded, tmp_path / "pop.json")
    assert (tmp_path / "pop.json").read_bytes() == _stdlib_bytes(pop)


@pytest.mark.parametrize("keyed", [False, True], ids=["table", "table_z"])
@pytest.mark.parametrize("shuffled", [0, 1, 2], ids=["shuffled-first", "shuffled-second",
                                                     "shuffled-last"])
def test_tables_of_one_size_in_and_out_of_row_order_load_the_same_entries(rng, keyed,
                                                                          shuffled):
    """Three tables of one size and kind in a file, one with its keys
    shuffled: the key list of the first table found in row order is reused
    for the tables after it, matching the ones in row order and not the
    shuffled one."""
    shape = (8, 8) if keyed else (8,)
    tables = [person(label, table(rng.normal(size=shape))) for label in ("co", "nt", "at")]
    pop = population([tables, [make_individual("co", rng), make_individual("nt", rng)]])
    data = json.loads(json.dumps(population_to_dict(pop)))  # keys shared, as in a read file
    values = data["blocks"][0][shuffled]["outcome"]["values"]
    keys = list(values)
    data["blocks"][0][shuffled]["outcome"]["values"] = {
        keys[k]: values[keys[k]] for k in rng.permutation(len(keys))}
    loaded = population_from_dict(data)
    assert loaded.table.tobytes() == pop.table.tobytes()


def test_shapes_are_checked_before_numbers():
    """A bad table entry in block 0 and a bad d0 in block 1: every shape is
    read before any number is converted, so the d0 is named."""
    data = population_to_dict(_one_table(np.arange(4.0)))
    data["blocks"][0][0]["outcome"]["values"]["01"] = "1.0"
    data["blocks"][1][0]["d0"] = "0"
    with pytest.raises(InvalidConfig) as exc:
        population_from_dict(data)
    assert str(exc.value) == "population block 1 individual 0: d0: expected an integer, got '0'"


def test_integer_table_entries_load_as_floats():
    data = population_to_dict(_one_table([1.0, 2.0, 3.0, 4.0]))
    values = data["blocks"][0][0]["outcome"]["values"]
    values.update({"00": 1, "11": -(2**60) - 1})
    loaded = population_from_dict(data)
    assert loaded.table.tolist() == [1.0, 2.0, 3.0, float(-(2**60) - 1)]


# --------------------------------------------------------------------------
# Float texts of table files: parsed through a bounded memo, exactly
# --------------------------------------------------------------------------

_TEXTS = ["-0.0", "0.0", "5e-324", "1e-05", "2", "1.0", "-0.0", "0.30000000000000004",
          "0.1", "1e-05", "2.5e-300", "1e22", "-1.5", "0.0", "7", "1.0"]


def _table_file(path, texts) -> str:
    """A population file whose block 0 member 0 holds a size-4 table with
    these entry texts in row order; returns the file's text."""
    data = population_to_dict(_one_table(np.zeros(16)))
    values = data["blocks"][0][0]["outcome"]["values"]
    for key, k in zip(values, range(len(texts))):
        values[key] = f"@{k}"
    text = json.dumps(data, sort_keys=True, indent=1)
    for k, entry in enumerate(texts):
        text = text.replace(f'"@{k}"', entry)
    path.write_text(text)
    return text


@pytest.fixture
def memos(monkeypatch):
    """Every float memo the reads build, in order, each holding at most 4
    texts."""
    built = []

    class Spy(popfile._FloatMemo):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(popfile, "FLOAT_MEMO_BOUND", 4)
    monkeypatch.setattr(popfile, "_FloatMemo", Spy)
    return built


def test_table_entries_parse_bitwise_as_plain_json(tmp_path, memos):
    """Every entry of a table file, read through the memo (emptied whenever
    it holds 4 texts), is the float plain json.loads reads, bit for bit:
    signed zeros, the smallest subnormal, integer texts and repeats."""
    path = tmp_path / "pop.json"
    text = _table_file(path, _TEXTS)
    plain = list(json.loads(text)["blocks"][0][0]["outcome"]["values"].values())
    loaded = load_population(path).table
    assert loaded.tobytes() == np.array(plain, dtype=float).tobytes()
    [memo] = memos
    assert 0 < len(memo) <= 4


def test_files_without_table_values_parse_with_plain_float(tmp_path, rng, memos):
    """A structural population file and a config build no memo."""
    path = tmp_path / "pop.json"
    save_population(build_population(_basic_cfg(), rng), path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dgp": {"strata": [0.25, 0.5, 0.25, 0.0]}, "seed": 1}))
    load_population(path)
    _json.read_json(config)
    assert memos == []


def test_each_table_file_read_builds_its_own_memo(tmp_path, memos):
    """Each read of a table file parses through a memo of its own, so two
    reads share none."""
    path = tmp_path / "pop.json"
    _table_file(path, _TEXTS)
    first, second = load_population(path), load_population(path)
    assert first.table.tobytes() == second.table.tobytes()
    assert len(memos) == 2


def test_memo_keeps_the_duplicate_key_and_non_finite_errors(tmp_path, memos):
    path = tmp_path / "pop.json"
    text = _table_file(path, _TEXTS[:2] + ["1e999"] + _TEXTS[3:])
    with pytest.raises(InvalidConfig) as exc:
        load_population(path)
    assert str(exc.value) == f"{_WHERE}: table entry '0010': expected a finite number, got inf"
    path.write_text(text.replace('"0011": 1e-05', '"0011": 1e-05,\n      "0011": 2', 1))
    with pytest.raises(InvalidConfig) as exc:
        load_population(path)
    assert str(exc.value) == f"{path}: duplicate key '0011' in an object"
    assert len(memos) == 2  # both reads parsed through a memo
