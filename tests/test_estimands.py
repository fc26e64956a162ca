import math

import numpy as np
import pytest

from peerenc.errors import (
    EmptyStratumInBlock,
    EnumerationTooLarge,
    ExclusionViolated,
    ZeroEncouragementEffect,
)
from peerenc.estimands import (
    compute_estimand_report,
    ditt,
    et,
    identity_ok,
    ldt,
    lpt,
    pitt,
    theorem_1_check,
    theorem_2_check,
    theorem_3_check,
    ybar_indiv_itt,
    ybar_indiv_local,
)
from peerenc.mechanisms import Mechanism
from peerenc.population import ComplianceType, convert_to_tables, outcome
from conftest import make_individual, make_population, person, population, structural, table
from fuzz import defier_population, equal_effect_monotone, one_sided_population, \
    varying_effect_monotone
from oracles import (
    convolution_ybar_local,
    naive_two_stage_direct,
    naive_two_stage_spillover,
    oracle_ditt,
    oracle_ybar_itt,
    oracle_ybar_local,
    poisson_binomial_pmf,
)

PHI = Mechanism("phi", 0.7)
PSI = Mechanism("psi", 0.3)


def test_poisson_binomial_matches_binomial():
    pmf = poisson_binomial_pmf([0.5] * 4)
    assert np.allclose(pmf, [1, 4, 6, 4, 1] / np.float64(16), atol=1e-15)
    assert poisson_binomial_pmf([]).tolist() == [1.0]
    # degenerate components are exact
    assert poisson_binomial_pmf([1.0, 0.0, 0.3]).tolist() == pytest.approx(
        [0.0, 0.7, 0.3, 0.0], abs=1e-15
    )


def test_moment_kernel_matches_convolution_on_large_blocks():
    """Closed-form peer-count moments against the exact Poisson-binomial
    distribution, on blocks too large for the enumeration oracles."""
    rng = np.random.default_rng(2020)
    kinds = ("at", "co", "nt", "de")
    for n in (1, 2, 7, 13, 20):
        labels = [[kinds[int(c)] for c in rng.integers(4, size=n)] for _ in range(2)]
        labels[0][0], labels[0][-1] = "at", "de"
        pop = make_population(labels, rng=rng)
        mechs = [Mechanism(f"v{n}_{k}", tuple(rng.uniform(0.05, 0.95, size=n)))
                 for k in range(2)]
        for mech in mechs:
            for i, n_i in enumerate(pop.sizes):
                for j in range(n_i):
                    for v in (0, 1):
                        own_d = int((pop.d1 if v else pop.d0)[pop.starts[i] + j])
                        assert ybar_indiv_itt(pop, i, j, v, mech) == pytest.approx(
                            convolution_ybar_local(pop, i, j, own_d, mech), abs=1e-12
                        )
                        assert ybar_indiv_local(pop, i, j, v, mech) == pytest.approx(
                            convolution_ybar_local(pop, i, j, v, mech), abs=1e-12
                        )


def _three_person_table_block():
    """complier, complier, never-taker; j0's outcome has an interaction."""
    idx = np.arange(8)
    d0 = (idx >> 2) & 1
    d1 = (idx >> 1) & 1
    d2 = idx & 1
    y0 = table(d0 + 10 * d1 + 100 * d2 + 5 * d0 * d1)
    flat = table(np.zeros(8))
    block = [person("co", y0), person("co", flat), person("nt", flat)]
    other = [person("co", structural(direct=1.0)) for _ in range(2)]
    return population([block, other])


def test_ybar_itt_three_person_table_hand_sum():
    pop = _three_person_table_block()
    half = Mechanism("half", 0.5)
    # own encouraged: d0=1, peer complier ~ Bernoulli(1/2), never-taker fixed 0:
    # four equally likely peer assignments, values (1, 1, 16, 16)
    assert ybar_indiv_itt(pop, 0, 0, 1, half) == pytest.approx(8.5, abs=1e-12)
    assert ybar_indiv_itt(pop, 0, 0, 0, half) == pytest.approx(5.0, abs=1e-12)
    assert ybar_indiv_itt(pop, 0, 0, 1, half) == pytest.approx(
        oracle_ybar_itt(pop, 0, 0, 1, half), abs=1e-12
    )


def test_ybar_local_three_person_table_hand_sum():
    pop = _three_person_table_block()
    p03 = Mechanism("m", 0.3)
    # own treatment pinned to 1, complier peer treated w.p. 0.3: 1 + 15*0.3
    assert ybar_indiv_local(pop, 0, 0, 1, p03) == pytest.approx(5.5, abs=1e-12)
    assert ybar_indiv_local(pop, 0, 0, 1, p03) == pytest.approx(
        oracle_ybar_local(pop, 0, 0, 1, p03), abs=1e-12
    )


def test_ybar_singleton_block_equals_raw_potential_outcome():
    pop = make_population([["co"], ["nt"]], direct=2.0, intercept=1.0)
    assert ybar_indiv_itt(pop, 0, 0, 1, PHI) == pytest.approx(3.0, abs=0)
    assert ybar_indiv_itt(pop, 0, 0, 0, PHI) == pytest.approx(1.0, abs=0)
    assert ybar_indiv_itt(pop, 1, 0, 1, PHI) == pytest.approx(1.0, abs=0)
    assert ybar_indiv_local(pop, 0, 0, 1, PSI) == pytest.approx(3.0, abs=0)
    assert ybar_indiv_local(pop, 1, 0, 1, PSI) == pytest.approx(3.0, abs=0)


def test_ybar_no_interference_is_mechanism_free():
    pop = make_population([["co", "at", "nt"], ["co", "co"]], direct=1.5, peer=0.0)
    for z in (0, 1):
        a = ybar_indiv_itt(pop, 0, 0, z, PHI)
        b = ybar_indiv_itt(pop, 0, 0, z, PSI)
        assert a == pytest.approx(b, abs=1e-14)
        assert a == pytest.approx(1.5 * z, abs=1e-14)


def test_ybar_all_never_taker_peers_degenerate():
    pop = make_population([["co", "nt", "nt"], ["co"]], direct=2.0, peer=7.0)
    # peers never treated: the peer coefficient cannot contribute
    assert ybar_indiv_local(pop, 0, 0, 1, PHI) == pytest.approx(2.0, abs=0)
    assert ybar_indiv_local(pop, 0, 0, 1, PSI) == pytest.approx(2.0, abs=0)


def test_ybar_oracle_equality_structural_and_table(rng):
    for _ in range(8):
        pop, a, b = varying_effect_monotone(rng, b_range=(2, 3), n_range=(1, 4))
        for i, n in enumerate(pop.sizes):
            for j in range(n):
                for mech in (a, b):
                    for z in (0, 1):
                        assert ybar_indiv_itt(pop, i, j, z, mech) == pytest.approx(
                            oracle_ybar_itt(pop, i, j, z, mech), abs=1e-12
                        )
                    for d in (0, 1):
                        assert ybar_indiv_local(pop, i, j, d, mech) == pytest.approx(
                            oracle_ybar_local(pop, i, j, d, mech), abs=1e-12
                        )


def test_ditt_constant_outcomes_zero():
    pop = make_population([["co", "nt"], ["at", "co"]], intercept=3.0)
    res = ditt(pop, 1, 0, PHI)
    assert res.population == pytest.approx(0.0, abs=1e-14)
    assert all(abs(v) <= 1e-14 for v in res.per_block)


def test_ditt_all_compliers_unit_direct_effect():
    pop = make_population([["co", "co"], ["co", "co", "co"]], direct=1.0)
    res = ditt(pop, 1, 0, PHI)
    assert res.population == pytest.approx(1.0, abs=1e-14)


def test_ditt_matches_oracle_on_random_population(rng):
    pop, a, _ = varying_effect_monotone(rng, b_range=(2, 2), n_range=(2, 4))
    per_block, population = oracle_ditt(pop, a)
    res = ditt(pop, 1, 0, a)
    assert res.population == pytest.approx(population, abs=1e-12)
    for got, want in zip(res.per_block, per_block):
        assert got == pytest.approx(want, abs=1e-12)


def test_ditt_antisymmetric_exactly(rng):
    pop, a, _ = varying_effect_monotone(rng)
    fwd = ditt(pop, 1, 0, a)
    rev = ditt(pop, 0, 1, a)
    assert all(x == -y for x, y in zip(fwd.per_block, rev.per_block))
    assert fwd.population == -rev.population


def test_pitt_no_interference_zero():
    pop = make_population([["co", "at"], ["co", "nt", "co"]], direct=2.0)
    for z in (0, 1):
        assert pitt(pop, z, PHI, PSI).population == pytest.approx(0.0, abs=1e-14)


def test_pitt_same_mechanism_exact_zero(rng):
    pop, a, _ = varying_effect_monotone(rng)
    res = pitt(pop, 1, a, a)
    assert res.population == 0.0
    assert all(v == 0.0 for v in res.per_block)


def test_pitt_linear_closed_form():
    pop = make_population(
        [["co"] * 5, ["co"] * 5], peer=0.5
    )
    a = Mechanism("a", 0.8)
    b = Mechanism("b", 0.2)
    for z in (0, 1):
        res = pitt(pop, z, a, b)
        assert res.population == pytest.approx(0.5 * 4 * 0.6, abs=1e-12)


def test_pitt_swap_negates_exactly(rng):
    pop, a, b = varying_effect_monotone(rng)
    fwd = pitt(pop, 1, a, b)
    rev = pitt(pop, 1, b, a)
    assert all(x == -y for x, y in zip(fwd.per_block, rev.per_block))


def test_et_examples():
    assert et(make_population([["co", "co"], ["co"]])).population == 1.0
    mixed = make_population([["at", "co", "co", "nt"], ["co"]])
    assert et(mixed).per_block[0] == pytest.approx(0.5, abs=0)
    cancel = make_population([["de", "co"], ["co"]])
    assert et(cancel).per_block[0] == 0.0


def test_ldt_additive_direct_effect():
    pop = make_population([["co", "co"], ["co", "co", "co"]], direct=2.0, peer=0.3)
    res = ldt(pop, 1, 0, PHI)
    assert res.population == pytest.approx(2.0, abs=1e-12)


def test_ldt_empty_stratum_names_block():
    pop = make_population([["co", "nt"], ["nt", "nt"]], direct=2.0)
    with pytest.raises(EmptyStratumInBlock, match="block 1"):
        ldt(pop, 1, 0, PHI)


def test_lpt_no_interference_zero():
    pop = make_population([["co", "at"], ["co", "nt"]], direct=2.0)
    for d in (0, 1):
        assert lpt(pop, d, PHI, PSI).population == pytest.approx(0.0, abs=1e-14)
        assert lpt(pop, d, PHI, PSI, ComplianceType.COMPLIER).population == pytest.approx(
            0.0, abs=1e-14
        )


def test_lpt_linear_closed_form():
    pop = make_population([["co"] * 5, ["co"] * 5], direct=1.0, peer=0.5)
    a = Mechanism("a", 0.9)
    b = Mechanism("b", 0.1)
    for d in (0, 1):
        res = lpt(pop, d, a, b, ComplianceType.COMPLIER)
        assert res.population == pytest.approx(0.5 * 4 * 0.8, abs=1e-12)


def test_lpt_empty_stratum():
    pop = make_population([["nt", "nt"], ["co"]])
    with pytest.raises(EmptyStratumInBlock):
        lpt(pop, 1, PHI, PSI, ComplianceType.COMPLIER)


def test_exclusion_violating_local_average_guarded():
    z_dep = table([[0.0, 1.0], [2.0, 3.0]])
    pop = population([[person("co", z_dep)], [person("co", structural())]])
    with pytest.raises(ExclusionViolated):
        ybar_indiv_local(pop, 0, 0, 1, PHI)
    # opt-in marginalization stays defined: d pinned to 1, own z ~ Bernoulli(0.7)
    val = ybar_indiv_local(pop, 0, 0, 1, PHI, allow_exclusion_violation=True)
    assert val == pytest.approx(0.7 * 3.0 + 0.3 * 2.0, abs=1e-12)


def test_enumeration_cap_enforced():
    pop = _three_person_table_block()
    with pytest.raises(EnumerationTooLarge, match="block 0"):
        ybar_indiv_itt(pop, 0, 0, 1, Mechanism("m", 0.5), cap=1)


# --------------------------------------------------------------------------
# Identities from the averaging arguments
# --------------------------------------------------------------------------


def test_individual_decomposition_identity(rng):
    """itt contrast = (d1-d0) * local contrast, individual by individual."""
    for _ in range(6):
        pop, a, _ = varying_effect_monotone(rng)
        for i, n in enumerate(pop.sizes):
            for j in range(n):
                u = pop.starts[i] + j
                lhs = ybar_indiv_itt(pop, i, j, 1, a) - ybar_indiv_itt(pop, i, j, 0, a)
                rhs = (int(pop.d1[u]) - int(pop.d0[u])) * (
                    ybar_indiv_local(pop, i, j, 1, a) - ybar_indiv_local(pop, i, j, 0, a)
                )
                assert lhs == pytest.approx(rhs, abs=1e-10)


def test_individual_switching_decomposition(rng):
    """mechanism contrast at z=1 = d1*delta_1 + (1-d1)*delta_0 per individual."""
    for _ in range(6):
        pop, a, b = varying_effect_monotone(rng)
        for i, n in enumerate(pop.sizes):
            for j in range(n):
                lhs = ybar_indiv_itt(pop, i, j, 1, a) - ybar_indiv_itt(pop, i, j, 1, b)
                d1 = int(pop.d1[pop.starts[i] + j])
                delta1 = ybar_indiv_local(pop, i, j, 1, a) - ybar_indiv_local(pop, i, j, 1, b)
                delta0 = ybar_indiv_local(pop, i, j, 0, a) - ybar_indiv_local(pop, i, j, 0, b)
                assert lhs == pytest.approx(d1 * delta1 + (1 - d1) * delta0, abs=1e-10)


def test_population_value_is_mean_of_blocks(rng):
    pop, a, b = varying_effect_monotone(rng)
    for summary in (ditt(pop, 1, 0, a), pitt(pop, 1, a, b), et(pop)):
        assert summary.population == sum(summary.per_block) / len(summary.per_block)


def test_theorem_1_blockwise_identity_unconstrained(rng):
    for _ in range(10):
        pop, a, _ = varying_effect_monotone(rng)
        rep = theorem_1_check(pop, a)
        for lhs_i, rhs_i in zip(rep.block_lhs, rep.block_rhs):
            assert identity_ok(lhs_i, rhs_i)


def test_theorem_1_population_identity_equal_effects(rng):
    for _ in range(10):
        pop, a, _ = equal_effect_monotone(rng, b_range=(2, 8), n_range=(1, 6))
        rep = theorem_1_check(pop, a)
        assert rep.passed, f"gap={rep.gap}"
        assert rep.assumptions_ok
        assert rep.note is None


def test_theorem_1_unequal_uptake_effects_diagnosed():
    """Hand-built counterexample: the block identity holds everywhere while
    the population-level ratio does not, and the report says why."""
    pop = population([[make_individual("co", direct=2.0), make_individual("nt")],
                      [make_individual("co"), make_individual("co")]])
    rep = theorem_1_check(pop, PHI)
    assert rep.lhs == pytest.approx((1.0 / 2) / (3.0 / 4), abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert not rep.passed
    assert rep.block_identity_ok
    assert rep.assumptions_ok
    assert "unequal uptake" in rep.note
    payload = rep.as_dict()
    assert payload["block_identity_ok"] is True


def test_defiers_break_block_identity_too(rng):
    found = False
    for _ in range(10):
        pop, a, b = defier_population(rng)
        rep = theorem_1_check(pop, a)
        if not rep.block_identity_ok:
            found = True
            break
    assert found


def test_theorem_2_blockwise_identity_unconstrained(rng):
    for _ in range(10):
        pop, a, b = varying_effect_monotone(rng)
        rep = theorem_2_check(pop, a, b)
        for lhs_i, rhs_i in zip(rep.block_lhs, rep.block_rhs):
            assert identity_ok(lhs_i, rhs_i)


def test_theorem_2_population_identity_equal_effects(rng):
    for _ in range(10):
        pop, a, b = equal_effect_monotone(rng, b_range=(2, 8), n_range=(1, 6))
        rep = theorem_2_check(pop, a, b)
        assert rep.passed, f"gap={rep.gap}"


def test_theorem_2_symmetric_peer_effect_both_sides_zero(rng):
    # peer influence independent of own treatment: the lpt difference vanishes
    pop = make_population([["co", "co", "nt"], ["co", "at", "co"]],
                          direct=2.0, peer=0.6, interaction=0.0, curvature=0.0)
    rep = theorem_2_check(pop, PHI, PSI)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_theorem_3_one_sided_exact(rng):
    for _ in range(10):
        pop, a, b = one_sided_population(rng)
        rep = theorem_3_check(pop, a, b, z=0)
        assert rep.passed, f"gap={rep.gap}"
        assert rep.assumptions_ok
        for lhs_i, rhs_i in zip(rep.block_lhs, rep.block_rhs):
            assert identity_ok(lhs_i, rhs_i)


def test_theorem_3_mirror_exact(rng):
    for _ in range(10):
        pop, a, b = one_sided_population(rng, mirror=True)
        rep = theorem_3_check(pop, a, b, z=1)
        assert rep.passed, f"gap={rep.gap}"
        assert rep.assumptions_ok


def test_theorem_3_fails_with_always_takers(rng):
    # monotone but not one-sided: generically a material gap at z=0
    pop = make_population([["co", "at", "at"], ["co", "at"]],
                          direct=1.0, peer=0.0, interaction=1.5)
    rep = theorem_3_check(pop, PHI, PSI, z=0)
    assert not rep.assumptions_ok
    assert abs(rep.gap) > 1e-6


def test_theorem_1_defiers_break_identity(rng):
    found_material_gap = False
    for _ in range(10):
        pop, a, b = defier_population(rng)
        rep = theorem_1_check(pop, a)
        assert not rep.assumptions_ok
        if abs(rep.gap) > 1e-3:
            found_material_gap = True
    assert found_material_gap


def test_theorem_checks_zero_uptake(rng):
    pop = make_population([["nt", "nt"], ["nt", "at"]])
    with pytest.raises(ZeroEncouragementEffect):
        theorem_1_check(pop, PHI)
    with pytest.raises(ZeroEncouragementEffect):
        theorem_2_check(pop, PHI, PSI)


def test_all_complier_tables_match_naive_two_stage_oracle(rng):
    pop = make_population([["co", "co", "co"], ["co", "co"]], rng=rng)
    pop = convert_to_tables(pop)
    direct = ldt(pop, 1, 0, PHI, ComplianceType.COMPLIER).population
    assert direct == pytest.approx(naive_two_stage_direct(pop, PHI), abs=1e-10)
    for d in (0, 1):
        spill = lpt(pop, d, PHI, PSI).population
        assert spill == pytest.approx(
            naive_two_stage_spillover(pop, d, PHI, PSI), abs=1e-10
        )


# --------------------------------------------------------------------------
# Batch report
# --------------------------------------------------------------------------


def test_estimand_report_dual_encoding_identical(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(3, 5), n_range=(2, 5))
    structural = compute_estimand_report(pop, a, b)
    tabled = compute_estimand_report(convert_to_tables(pop), a, b)
    assert structural.entries.keys() == tabled.entries.keys()
    for key, summary in structural.entries.items():
        other = tabled.entries[key]
        assert summary.population == pytest.approx(other.population, abs=1e-10)
        for x, y in zip(summary.per_block, other.per_block):
            assert x == pytest.approx(y, abs=1e-10)


def test_estimand_report_serialization(rng, tmp_path):
    pop, a, b = equal_effect_monotone(rng, b_range=(2, 3), n_range=(1, 3))
    report = compute_estimand_report(pop, a, b)
    path = tmp_path / "report.json"
    report.write_json(path)
    again = compute_estimand_report(pop, a, b)
    assert again.to_json() == path.read_text().rstrip("\n")
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "estimand,block,value"
    assert any(",population," in line for line in csv_text.splitlines())


def test_estimand_report_skips_complier_families_when_undefined():
    pop = make_population([["co", "nt"], ["nt"]], direct=1.0)
    report = compute_estimand_report(pop, PHI, PSI)
    assert "complier_local_effects" in report.skipped
    assert "et[1,0]" in report.entries


def test_estimand_report_exclusion_violation_skips_local():
    z_dep = table([[0.0, 1.0], [2.0, 3.0]])
    pop = population([[person("co", z_dep)], [person("co", structural())]])
    report = compute_estimand_report(pop, PHI, PSI)
    assert "local_effects" in report.skipped
    assert not any(k.startswith("ldt") for k in report.entries)
