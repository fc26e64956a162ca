import itertools
import json

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
    Individual,
    OutcomeConfig,
    Population,
    PotentialTreatment,
    StructuralOutcome,
    TableOutcome,
    build_population,
    classify,
    convert_to_tables,
    load_population,
    outcome,
    population_from_dict,
    population_to_dict,
    save_population,
    validate,
)
from conftest import make_population


def test_classify_bijection():
    assert classify(PotentialTreatment(0, 1)) is ComplianceType.COMPLIER
    assert classify(PotentialTreatment(1, 1)) is ComplianceType.ALWAYS_TAKER
    assert classify(PotentialTreatment(1, 0)) is ComplianceType.DEFIER
    assert classify(PotentialTreatment(0, 0)) is ComplianceType.NEVER_TAKER


def test_potential_treatment_lookup():
    pop = make_population([["co", "nt"], ["at", "co"]])
    assert pop.blocks[0][0].pt.take(1) == 1
    assert pop.blocks[0][0].pt.take(0) == 0
    assert pop.blocks[0][1].pt.take(1) == 0
    assert pop.blocks[1][0].pt.take(0) == 1


def test_validate_all_compliers():
    pop = make_population([["co", "co"], ["co", "co", "co"]])
    report = validate(pop)
    assert report.monotone and report.one_sided and report.exclusion_ok
    assert all(b.encouragement_effect == 1.0 for b in report.blocks)
    assert not report.warnings


def test_validate_defier_with_monotone_flag():
    blocks = (
        (Individual(PotentialTreatment(1, 0), StructuralOutcome()),
         Individual(PotentialTreatment(0, 1), StructuralOutcome())),
        (Individual(PotentialTreatment(0, 1), StructuralOutcome()),),
    )
    pop = Population(blocks=blocks, monotone=True, one_sided=False, exclusion_ok=True)
    with pytest.raises(FlagMismatch):
        validate(pop)


def test_validate_flags_must_match_in_both_directions():
    pop = make_population([["co"], ["co"]])
    claimed_weaker = Population(pop.blocks, monotone=False, one_sided=True, exclusion_ok=True)
    with pytest.raises(FlagMismatch):
        validate(claimed_weaker)


def test_validate_all_never_takers_warns_ineffective():
    pop = make_population([["nt", "nt"], ["nt"]])
    report = validate(pop)
    assert all(b.encouragement_effect == 0.0 for b in report.blocks)
    assert any("EncouragementIneffective" in w for w in report.warnings)


def test_structural_outcome_formula():
    y = StructuralOutcome(direct=2.0, peer=0.5)
    assert y.value(1, 2) == pytest.approx(3.0, abs=0)
    assert y.value(0, 4) == pytest.approx(2.0, abs=0)


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
    table = TableOutcome(n=2, values=np.full(4, c))
    blocks = (
        (Individual(PotentialTreatment(0, 1), table),
         Individual(PotentialTreatment(0, 0), table)),
        (Individual(PotentialTreatment(0, 1), StructuralOutcome()),),
    )
    pop = Population(blocks, monotone=True, one_sided=True, exclusion_ok=True)
    for d in itertools.product((0, 1), repeat=2):
        assert outcome(pop, 0, 0, d) == c


def test_outcome_arity_checked():
    pop = make_population([["co", "nt"], ["co"]])
    with pytest.raises(ArityMismatch):
        outcome(pop, 0, 0, (1, 0, 1))


def test_table_completeness_enforced():
    with pytest.raises(MissingTableEntry):
        TableOutcome(n=2, values=np.array([1.0, np.nan, 0.0, 2.0]))
    with pytest.raises(ArityMismatch):
        TableOutcome(n=2, values=np.zeros(3))


def test_population_shape_validation():
    ind = Individual(PotentialTreatment(0, 1), StructuralOutcome())
    with pytest.raises(ValueError):
        Population(blocks=((ind,),), monotone=True, one_sided=True, exclusion_ok=True)
    bad_table = Individual(PotentialTreatment(0, 1), TableOutcome(n=3, values=np.zeros(8)))
    with pytest.raises(ArityMismatch):
        Population(blocks=((ind, bad_table), (ind,)), monotone=True, one_sided=True,
                   exclusion_ok=True)


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
    for block in pop.blocks:
        assert any(classify(ind.pt) is ComplianceType.COMPLIER for ind in block)
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
    for block, rep in zip(pop.blocks, validate(pop).blocks):
        assert rep.strata == {ct: sum(classify(ind.pt) is ct for ind in block)
                              for ct in ComplianceType}
        assert sum(rep.strata.values()) == len(block)
        total += sum(rep.strata.values())
    assert total == pop.n_individuals


def test_monotone_uptake_effect_equals_complier_fraction(rng):
    pop = build_population(_basic_cfg(), rng)
    for block, rep in zip(pop.blocks, validate(pop).blocks):
        frac = sum(classify(ind.pt) is ComplianceType.COMPLIER for ind in block) / len(block)
        assert rep.strata[ComplianceType.COMPLIER] / len(block) == frac
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
    for i, block in enumerate(pop.blocks):
        n = len(block)
        for d_vec in itertools.product((0, 1), repeat=n):
            for j in range(n):
                assert outcome(tabled, i, j, d_vec) == pytest.approx(
                    outcome(pop, i, j, d_vec), abs=1e-12
                )


def test_population_json_is_plain_data(rng):
    pop = build_population(_basic_cfg(block_size=3), rng)
    text = json.dumps(population_to_dict(pop), sort_keys=True)
    assert "NaN" not in text
