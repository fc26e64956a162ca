import json

import numpy as np
import pytest

from peerenc import design
from peerenc.design import DesignConfig
from peerenc.errors import InvalidConfig, InvalidDesign
from peerenc.mechanisms import Mechanism
from peerenc.montecarlo import (
    ESTIMATOR_NAMES,
    MAX_REPLICATIONS,
    exact_targets,
    replicate,
    replicate_values,
    verification_passes,
    verify_theorems,
)
from peerenc.population import DgpConfig, OutcomeConfig, build_population
from conftest import make_population, person, population, structural, table
from fuzz import defier_population, equal_effect_monotone, one_sided_population
from oracles import reference_replicate_values

PHI = Mechanism("phi", 0.7)
PSI = Mechanism("psi", 0.3)


def _cfg(pop, seed=5, k=None):
    return DesignConfig(mech_a=PHI, mech_b=PSI, k=k or max(1, pop.n_blocks // 2), seed=seed)


def test_constant_zero_outcomes_degenerate_summary():
    pop = make_population([["co", "nt"], ["co", "at"], ["co", "co"]], intercept=0.0)
    summary = replicate(pop, _cfg(pop), replications=50)
    ditt = summary.get("ditt_hat_a")
    assert ditt.mean == 0.0
    assert ditt.sd == 0.0
    assert ditt.target == 0.0
    assert ditt.std_bias == 0.0


def test_same_seed_identical_bytes(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(3, 4), n_range=(2, 4))
    cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=17)
    s1 = replicate(pop, cfg, replications=40)
    s2 = replicate(pop, cfg, replications=40)
    assert s1.to_json().encode() == s2.to_json().encode()


def test_split_halves_pool_exactly(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(2, 3), n_range=(2, 3))
    cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=31)
    full = replicate_values(pop, cfg, 40)
    first = replicate_values(pop, cfg, 20, first_replicate=0)
    second = replicate_values(pop, cfg, 20, first_replicate=20)
    pooled = np.vstack([first, second])
    assert np.array_equal(full, pooled, equal_nan=True)
    col = ESTIMATOR_NAMES.index("ditt_hat_a")
    assert np.mean(full[:, col]) == np.mean(pooled[:, col])


def _batch_populations():
    """Populations for the batch-vs-loop comparison, with a design for each."""
    rng = np.random.default_rng(8)
    phi, psi = Mechanism("phi", 0.7), Mechanism("psi", 0.25)
    structural_pop = population([
        [person(("co", "nt", "at")[int(rng.integers(3))],
                structural(intercept=float(rng.normal()), direct=float(rng.normal(2, 1)),
                           peer=float(rng.normal(0.5, 0.3)), interaction=0.2, curvature=0.05,
                           noise=float(rng.normal())))
         for _ in range(int(n))]
        for n in rng.integers(1, 7, size=24)
    ])
    tables = population([[person(("co", "nt", "at", "de")[int(rng.integers(4))],
                                 table(rng.normal(size=2**n))) for _ in range(n)]
                         for n in (3, 1, 4, 2, 3, 5, 2, 4, 1, 3)])
    keyed = population([[person("co", table(rng.normal(size=(2**n, 2**n)))),
                         *(person("nt", structural(intercept=float(rng.normal())))
                           for _ in range(n - 1))]
                        for n in (3, 2, 3, 1, 2, 3)])
    vector = population([[person("co", structural(direct=float(rng.normal(2, 1)), peer=0.4))
                          for _ in range(3)] for _ in range(12)])
    singletons = make_population([["co"]] * 9, direct=1.0)
    no_uptake = make_population([["nt"] * 3] * 6, intercept=1.0, peer=0.5)
    return {
        "structural-unequal-sizes": (structural_pop, DesignConfig(phi, psi, k=13, seed=3)),
        "tables": (tables, DesignConfig(phi, psi, k=4, seed=2**40 + 1)),
        "encouragement-keyed": (keyed, DesignConfig(phi, psi, k=3, seed=0)),
        "vector-mechanisms": (vector, DesignConfig(Mechanism("a", (0.2, 0.6, 0.9)),
                                                   Mechanism("b", (0.7, 0.3, 0.15)),
                                                   k=5, seed=77)),
        "all-single-armed": (singletons, DesignConfig(phi, psi, k=4, seed=5)),
        "zero-uptake": (no_uptake, DesignConfig(phi, psi, k=3, seed=6)),
    }


@pytest.mark.parametrize("name", list(_batch_populations()))
def test_batched_replicates_match_the_per_replicate_loop_bitwise(name, monkeypatch):
    """Every replicate row equals the per-block numpy-generator loop bit for
    bit, NaN positions included, also when R spans several batches."""
    pop, cfg = _batch_populations()[name]
    monkeypatch.setattr(design, "BATCH_BYTES", 7 * design.BYTES_PER_DRAW * pop.n_individuals)
    assert design.batch_size(pop) == 7
    got = replicate_values(pop, cfg, 30, first_replicate=11)
    want = reference_replicate_values(pop, cfg, ESTIMATOR_NAMES, 30, first=11)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)
    if name in ("all-single-armed", "zero-uptake"):
        assert np.isnan(got[:, ESTIMATOR_NAMES.index("ldt_hat")]).all()


def test_replication_bounds_are_checked_before_any_work():
    pop = make_population([["co"], ["co"]])
    for bad in (-1, MAX_REPLICATIONS + 1, 10**15):
        with pytest.raises(InvalidConfig):
            replicate_values(pop, _cfg(pop, k=1), bad)
    # any non-negative replicate index addresses a stream, 2^32 and beyond too
    big = replicate_values(pop, _cfg(pop, k=1), 1, first_replicate=2**32)
    want = reference_replicate_values(pop, _cfg(pop, k=1), ESTIMATOR_NAMES, 1, first=2**32)
    assert np.array_equal(big, want, equal_nan=True)
    with pytest.raises(InvalidDesign):
        replicate_values(pop, _cfg(pop, k=1), 2, first_replicate=-1)


def test_undefined_replicates_counted_not_fatal():
    # single-individual blocks: the uptake ratio is undefined every replicate
    pop = make_population([["co"], ["co"], ["co"]], direct=1.0)
    summary = replicate(pop, _cfg(pop, k=1), replications=25)
    et = summary.get("et_hat")
    assert et.n_undefined == 25
    assert et.n_defined == 0
    assert summary.get("ldt_hat").n_undefined == 25
    assert summary.get("ditt_hat_a").n_undefined == 0


def test_loose_standardized_bias_gate(rng):
    """The inverse-probability estimators are exactly unbiased, so their
    standardized bias behaves like |N(0,1)| at any replication count."""
    pop, a, b = equal_effect_monotone(rng, b_range=(8, 8), n_range=(4, 4))
    cfg = DesignConfig(mech_a=a, mech_b=b, k=4, seed=41)
    summary = replicate(pop, cfg, replications=3000)
    for name in ("ditt_hat_a", "ditt_hat_b", "pitt_hat_1", "pitt_hat_0", "lpt0_hat"):
        s = summary.get(name)
        assert s.std_bias is not None and s.std_bias <= 4.0, (name, s.std_bias)


def test_et_hat_unbiased_under_scalar_mechanisms():
    """With one probability per block the encouraged set is exchangeable, so
    the ratio-of-means uptake contrast is conditionally unbiased; per-unit
    heterogeneous probabilities leave it only consistent, not unbiased."""
    pop = make_population([["co", "co", "at", "nt"]] * 8, direct=1.0)
    cfg = DesignConfig(mech_a=PHI, mech_b=PSI, k=4, seed=6)
    summary = replicate(pop, cfg, replications=3000)
    s = summary.get("et_hat")
    assert s.target == 0.5
    assert s.std_bias <= 4.0


def test_no_interference_peer_estimator_centered_at_zero(rng):
    pop = make_population([["co", "nt", "co"]] * 8, rng=rng,
                          peer=0.0, interaction=0.0, curvature=0.0)
    cfg = DesignConfig(mech_a=PHI, mech_b=PSI, k=4, seed=19)
    summary = replicate(pop, cfg, replications=1500)
    for name in ("pitt_hat_1", "pitt_hat_0"):
        s = summary.get(name)
        assert abs(s.target) <= 1e-12
        assert s.std_bias <= 4.0


def test_targets_match_exact_engine(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(2, 3), n_range=(2, 3))
    cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=2)
    targets = exact_targets(pop, cfg)
    from peerenc.estimands import ditt, et, member_averages

    assert targets["ditt_hat_a"] == ditt(member_averages(pop, a)).population
    assert targets["ldt_hat"] == pytest.approx(
        ditt(member_averages(pop, a)).population / et(pop).population, abs=0
    )


def test_replication_floor():
    from peerenc.errors import InvalidConfig

    pop = make_population([["co"], ["co"]])
    with pytest.raises(InvalidConfig):
        replicate(pop, _cfg(pop, k=1), replications=1)


def test_mc_summary_text_table(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(2, 3), n_range=(2, 3))
    cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=2)
    table = replicate(pop, cfg, replications=20).text_table()
    assert "ditt_hat_a" in table and "std_bias" in table


def test_verify_theorems_all_pass_on_one_sided_equal_effects(rng):
    pop, a, b = one_sided_population(rng, b_range=(6, 8), n_range=(3, 5),
                                     equal_effect=True)
    report = verify_theorems(pop, a, b, replications=400, seed=9)
    t1 = report.get("theorem_1")
    t2 = report.get("theorem_2")
    t3 = report.get("theorem_3[z=0]")
    assert t1.exact_ok and t1.identity.assumptions_ok
    assert t2.exact_ok
    assert t3.exact_ok and t3.identity.assumptions_ok
    assert t1.plugin_std_bias is not None
    assert verification_passes(report)
    payload = json.loads(report.to_json())
    assert {t["name"] for t in payload["theorems"]} >= {"theorem_1", "theorem_2"}
    assert "theorem_1" in report.text_table()


def test_verify_theorems_monotone_with_always_takers(rng):
    """Always-takers leave theorems 1-2 intact but break the z=0 peer
    identity, which must then be explicitly expected to fail."""
    pop, a, b = equal_effect_monotone(rng, b_range=(6, 8), n_range=(3, 5))
    report = verify_theorems(pop, a, b)
    assert report.get("theorem_1").exact_ok
    assert report.get("theorem_2").exact_ok
    t3 = report.get("theorem_3[z=0]")
    if t3.identity.assumptions_ok:  # fuzz drew no always-takers: all one-sided
        assert verification_passes(report)
    else:
        assert not verification_passes(report)
        assert verification_passes(report, expect_fail={"thm3"})


def test_verify_theorems_one_sided_varying_effects(rng):
    """With unequal per-block uptake effects the block-level ratio identity
    holds but its population-level aggregation generically does not; the
    everyone-peer identity is aggregation-free and still passes."""
    pop, a, b = one_sided_population(rng, b_range=(4, 6), n_range=(2, 5))
    report = verify_theorems(pop, a, b)
    t3 = report.get("theorem_3[z=0]")
    assert t3.exact_ok and t3.identity.assumptions_ok


def test_verify_theorems_mirror(rng):
    pop, a, b = one_sided_population(rng, b_range=(4, 6), n_range=(2, 5), mirror=True)
    report = verify_theorems(pop, a, b)
    mirror = report.get("theorem_3[z=1]")
    assert mirror.exact_ok and mirror.identity.assumptions_ok


def test_verify_theorems_defiers_expected_fail(rng):
    for _ in range(10):
        pop, a, b = defier_population(rng)
        report = verify_theorems(pop, a, b)
        t1 = report.get("theorem_1")
        assert not t1.identity.assumptions_ok
        if not t1.exact_ok:
            assert not verification_passes(report)
            assert verification_passes(report, expect_fail={"thm1", "thm2", "thm3"})
            return
    raise AssertionError("defier fuzz never produced a failing identity")


def test_verify_evaluates_each_mechanism_kernel_once(monkeypatch):
    """verify_theorems runs the exact kernel once per mechanism, two in all,
    and reports what the public theorem checks report."""
    from peerenc import estimands, montecarlo

    pop = make_population([["co", "co", "co"], ["co", "co"], ["co", "co", "co"]])
    calls = []
    kernel = estimands.member_averages

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(estimands, "member_averages", counted)
    monkeypatch.setattr(montecarlo, "member_averages", counted)
    for replications in (0, 20):
        calls.clear()
        report = verify_theorems(pop, PHI, PSI, replications=replications, seed=3)
        assert calls == [PHI, PSI]
    assert [t.name for t in report.theorems] == [
        "theorem_1", "theorem_2", "theorem_3[z=0]", "theorem_3[z=1]"]
    a, b = kernel(pop, PHI), kernel(pop, PSI)
    assert report.get("theorem_1").identity == estimands.theorem_1_check(a)
    assert report.get("theorem_2").identity == estimands.theorem_2_check(a, b)
    for z in (0, 1):
        assert report.get(f"theorem_3[z={z}]").identity == estimands.theorem_3_check(a, b, z=z)


def test_verify_theorems_degenerate_uptake():
    pop = make_population([["nt", "nt"], ["nt", "at"]])
    report = verify_theorems(pop, PHI, PSI)
    t1 = report.get("theorem_1")
    assert t1.identity is None
    assert "ZeroEncouragementEffect" in t1.error
    assert not verification_passes(report)
    assert "degenerate" in report.text_table()


def test_verify_theorems_exclusion_violation_flagged():
    cfg = DgpConfig(
        blocks=3,
        block_size=3,
        strata=(0.2, 0.6, 0.2, 0.0),
        outcome=OutcomeConfig(representation="table", direct=2.0, peer=0.5,
                              z_own=0.8, z_peer=0.4),
        monotone=True,
    )
    pop = build_population(cfg, np.random.default_rng(12))
    report = verify_theorems(pop, PHI, PSI)
    t1 = report.get("theorem_1")
    assert t1.identity is not None
    assert not t1.identity.assumptions_ok
    assert any("exclusion" in n for n in t1.identity.assumption_notes)
