import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerenc.errors import (
    ArityMismatch,
    FlagMismatch,
    GenerationFailed,
    InvalidConfig,
    MissingTableEntry,
)
from peerenc.population import (
    ComplianceType,
    DgpConfig,
    OutcomeConfig,
    Population,
    build_population,
    classify,
    convert_to_tables,
    load_population,
    outcome,
    population_from_dict,
    population_to_dict,
    save_population,
    structural_value,
    validate,
)
from conftest import make_individual, make_population, person, population, structural, table


def test_classify_bijection():
    assert classify(0, 1) is ComplianceType.COMPLIER
    assert classify(1, 1) is ComplianceType.ALWAYS_TAKER
    assert classify(1, 0) is ComplianceType.DEFIER
    assert classify(0, 0) is ComplianceType.NEVER_TAKER


def test_potential_treatment_lookup():
    pop = make_population([["co", "nt"], ["at", "co"]])
    assert pop.starts.tolist() == [0, 2, 4]
    assert pop.d0.tolist() == [0, 0, 1, 0]
    assert pop.d1.tolist() == [1, 0, 1, 1]


def test_validate_all_compliers():
    pop = make_population([["co", "co"], ["co", "co", "co"]])
    report = validate(pop)
    assert report.monotone and report.one_sided and report.exclusion_ok
    assert all(b.encouragement_effect == 1.0 for b in report.blocks)
    assert not report.warnings


def test_validate_defier_with_monotone_flag():
    pop = make_population([["de", "co"], ["co"]])
    assert not pop.monotone
    with pytest.raises(FlagMismatch):
        validate(dataclasses.replace(pop, monotone=True))
    data = population_to_dict(pop)
    data["flags"]["monotone"] = True
    with pytest.raises(FlagMismatch):
        population_from_dict(data)


def test_validate_flags_must_match_in_both_directions():
    pop = make_population([["co"], ["co"]])
    claimed_weaker = dataclasses.replace(pop, monotone=False)
    with pytest.raises(FlagMismatch):
        validate(claimed_weaker)


def test_validate_all_never_takers_warns_ineffective():
    pop = make_population([["nt", "nt"], ["nt"]])
    report = validate(pop)
    assert all(b.encouragement_effect == 0.0 for b in report.blocks)
    assert any("EncouragementIneffective" in w for w in report.warnings)


def test_structural_outcome_formula():
    coef = (0.0, 2.0, 0.5, 0.0, 0.0, 0.0)  # intercept, direct, peer, interaction, curvature, noise
    assert structural_value(coef, 1, 2) == pytest.approx(3.0, abs=0)
    assert structural_value(coef, 0, 4) == pytest.approx(2.0, abs=0)


def test_outcome_structural_anonymous_in_peers():
    pop = make_population([["co", "co", "co", "nt"], ["co"]],
                          direct=2.0, peer=0.5)
    base = outcome(pop, 0, 0, (1, 1, 0, 1))
    for perm in itertools.permutations((1, 0, 1)):
        assert outcome(pop, 0, 0, (1, *perm)) == pytest.approx(base, abs=0)


def test_outcome_ignores_encouragements_when_exclusion_ok():
    pop = make_population([["co", "nt"], ["at", "co"]], direct=1.5, peer=0.25)
    d = (1, 0)
    vals = {outcome(pop, 0, 0, d, z) for z in itertools.product((0, 1), repeat=2)}
    assert len(vals) == 1


def test_constant_table_returns_constant():
    c = 4.25
    constant = table(np.full(4, c))
    pop = population([[person("co", constant), person("nt", constant)],
                      [person("co", structural())]])
    for d in itertools.product((0, 1), repeat=2):
        assert outcome(pop, 0, 0, d) == c


def test_outcome_arity_checked():
    pop = make_population([["co", "nt"], ["co"]])
    with pytest.raises(ArityMismatch):
        outcome(pop, 0, 0, (1, 0, 1))


def _tabled_pair():
    """Two blocks of two members; block 0 holds a table, block 1 is structural."""
    return population([[person("co", table([1.0, 0.0, 2.0, 3.0])), person("nt", structural())],
                       [person("co", structural()), person("co", structural())]])


def test_table_completeness_enforced():
    pop = _tabled_pair()
    entries = np.array(pop.tables[0])
    entries[0, 1, 0] = np.nan
    with pytest.raises(MissingTableEntry):
        dataclasses.replace(pop, tables=(entries, None))
    entries[0, 1, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(pop, tables=(entries, None))
    with pytest.raises(ArityMismatch):
        dataclasses.replace(pop, tables=(np.zeros((2, 3, 1)), None))
    data = population_to_dict(pop)
    del data["blocks"][0][0]["outcome"]["values"]["01"]
    with pytest.raises(MissingTableEntry):
        population_from_dict(data)


def test_population_shape_validation():
    pop = _tabled_pair()
    with pytest.raises(ValueError, match="at least 2 blocks"):
        dataclasses.replace(pop, starts=[0, 4], tables=(None,))
    with pytest.raises(ValueError, match="block 1 is empty"):
        dataclasses.replace(pop, starts=[0, 4, 4], tables=(pop.tables[0], None))
    with pytest.raises(ArityMismatch):
        dataclasses.replace(pop, tables=(np.zeros((2, 8, 1)), None))
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
    (dict(tables=(None, None)), ValueError, "block 0: a table member"),
    (dict(tables=(None,)), ArityMismatch, "one entry per block"),
    (dict(z_dependent=[True, False, False, False]), ArityMismatch, "z axis"),
    (dict(tables=(np.arange(32.0).reshape(2, 4, 4), None)), ValueError, "varies with z"),
], ids=["d0-2", "d1-minus-1", "d0-short", "coef-rows", "structural-z-keyed", "table-missing",
        "tables-per-block", "z-keyed-without-z-axis", "plain-table-varies-with-z"])
def test_population_constructor_checks(change, error, match):
    with pytest.raises(error, match=match):
        dataclasses.replace(_tabled_pair(), **change)


def test_population_arrays_are_read_only():
    pop = _tabled_pair()
    for arr in (pop.starts, pop.d0, pop.d1, pop.structural, pop.z_dependent, pop.coef,
                pop.tables[0]):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_tables_fill_one_array_per_block():
    """Table members fill their block's [member, d row, z row] array;
    structural members keep their coefficients, table members zero ones."""
    pop = _tabled_pair()
    assert pop.structural.tolist() == [False, True, True, True]
    assert pop.tables[0].shape == (2, 4, 1) and pop.tables[1] is None
    assert pop.tables[0][0, :, 0].tolist() == [1.0, 0.0, 2.0, 3.0]
    assert not pop.coef[:, 0].any()
    keyed = population([[person("co", table(np.arange(16.0).reshape(4, 4))),
                         person("nt", table([1.0, 2.0, 3.0, 4.0]))],
                        [make_individual("co")]])
    assert keyed.tables[0].shape == (2, 4, 4) and not keyed.exclusion_ok
    assert keyed.tables[0][1].tolist() == [[v] * 4 for v in (1.0, 2.0, 3.0, 4.0)]
    assert population_to_dict(keyed)["blocks"][0][1]["outcome"] == table([1.0, 2.0, 3.0, 4.0])


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


def test_build_population_basic():
    pop = build_population(_basic_cfg(), np.random.default_rng(3))
    assert pop.n_blocks == 10
    assert pop.sizes == (5,) * 10
    assert pop.monotone and pop.exclusion_ok
    report = validate(pop)
    assert all(b.has_complier for b in report.blocks)


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
        assert any(classify(pop.d0[u], pop.d1[u]) is ComplianceType.COMPLIER
                   for u in range(lo, hi))
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
    z0 = outcome(pop, 0, 0, (1, 0, 0), (0, 0, 0))
    z1 = outcome(pop, 0, 0, (1, 0, 0), (1, 0, 0))
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
    for lo, hi, rep in zip(pop.starts[:-1], pop.starts[1:], validate(pop).blocks):
        strata = [classify(pop.d0[u], pop.d1[u]) for u in range(lo, hi)]
        assert rep.strata == {ct: strata.count(ct) for ct in ComplianceType}
        assert sum(rep.strata.values()) == hi - lo
        total += sum(rep.strata.values())
    assert total == pop.n_individuals


def test_monotone_uptake_effect_equals_complier_fraction(rng):
    pop = build_population(_basic_cfg(), rng)
    for lo, hi, rep in zip(pop.starts[:-1], pop.starts[1:], validate(pop).blocks):
        frac = sum(classify(pop.d0[u], pop.d1[u]) is ComplianceType.COMPLIER
                   for u in range(lo, hi)) / (hi - lo)
        assert rep.strata[ComplianceType.COMPLIER] / (hi - lo) == frac
        assert rep.encouragement_effect == pytest.approx(frac, abs=0)


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
    assert sum(b.size for b in report.blocks) == pop.n_individuals


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
        for d_vec in itertools.product((0, 1), repeat=n):
            for j in range(n):
                assert outcome(tabled, i, j, d_vec) == pytest.approx(
                    outcome(pop, i, j, d_vec), abs=1e-12
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
