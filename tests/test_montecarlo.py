import json
import math

import numpy as np
import pytest

from peerenc import design, montecarlo
from peerenc.design import Design
from peerenc.errors import InvalidConfig, InvalidDesign
from peerenc.estimands import exact_targets, member_averages, theorem_3_check, \
    verification_passes, verify_theorems
from peerenc.mechanisms import Mechanism
from peerenc.montecarlo import (
    ESTIMATOR_NAMES,
    MAX_REPLICATIONS,
    _moments,
    _summarize_column,
    check_replications,
    replicate,
    replicate_values,
)
from peerenc.population import DgpConfig, OutcomeConfig, build_population
from conftest import make_population, person, population, structural, table
from fuzz import defier_population, equal_effect_monotone, one_sided_population
from oracles import exact_design_distribution, reference_replicate_values

PHI = Mechanism("phi", 0.7)
PSI = Mechanism("psi", 0.3)


def _design(pop, seed=5, k=None):
    return Design(pop, mech_a=PHI, mech_b=PSI, k=k or max(1, pop.n_blocks // 2), seed=seed)


def _verify(pop, a, b, replications, seed, k=None):
    """verify_theorems with the Monte Carlo the CLI adds to its report."""
    k = pop.n_blocks // 2 if k is None else k
    design = Design(pop, a, b, k=k, seed=seed)
    report = verify_theorems(pop, a, b)
    return report.replace(mc=replicate(design, replications, report.targets))


def test_constant_zero_outcomes_degenerate_summary():
    pop = make_population([["co", "nt"], ["co", "at"], ["co", "co"]], intercept=0.0)
    summary = replicate(_design(pop), 50, exact_targets(pop, PHI, PSI))
    ditt = summary.get("ditt_hat_a")
    assert ditt.mean == 0.0
    assert ditt.sd == 0.0
    assert ditt.target == 0.0
    assert ditt.std_bias == 0.0
    # equal values exactly ET_ZERO_TOL from the target are on it too
    assert _summarize_column("ditt_hat_a", np.array([1e-12, 1e-12]), 0.0).std_bias == 0.0


@pytest.mark.parametrize("values, moments", [
    ([1.0, 4.0], (2.5, math.sqrt(4.5))), ([3.0], (3.0, 0.0)),
    ([1e308, 1e308], (1e308, 0.0)), ([1e200, -1e200], (0.0, math.sqrt(2.0) * 1e200)),
], ids=["two-values", "one-value", "mean-overflows", "sd-overflows"])
def test_summary_moments_are_the_mean_and_sample_sd(values, moments):
    """The sd of two values divides by one; a single value's sd reads 0.
    Where a sum overflows, the moments are still the finite ones."""
    assert _moments(np.array(values)) == moments


def test_same_seed_identical_bytes(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(3, 4), n_range=(2, 4))
    targets = exact_targets(pop, a, b)
    s1 = replicate(Design(pop, mech_a=a, mech_b=b, k=1, seed=17), 40, targets)
    s2 = replicate(Design(pop, mech_a=a, mech_b=b, k=1, seed=17), 40, targets)
    assert s1.to_json().encode() == s2.to_json().encode()


def test_split_halves_pool_exactly(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(2, 3), n_range=(2, 3))
    design = Design(pop, mech_a=a, mech_b=b, k=1, seed=31)
    full = replicate_values(design, 40)
    first = replicate_values(design, 20, first_replicate=0)
    second = replicate_values(design, 20, first_replicate=20)
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
        "structural-unequal-sizes": Design(structural_pop, phi, psi, k=13, seed=3),
        "tables": Design(tables, phi, psi, k=4, seed=2**40 + 1),
        "encouragement-keyed": Design(keyed, phi, psi, k=3, seed=0),
        "vector-mechanisms": Design(vector, Mechanism("a", (0.2, 0.6, 0.9)),
                                    Mechanism("b", (0.7, 0.3, 0.15)), k=5, seed=77),
        "all-single-armed": Design(singletons, phi, psi, k=4, seed=5),
        "zero-uptake": Design(no_uptake, phi, psi, k=3, seed=6),
    }


@pytest.mark.parametrize("name", list(_batch_populations()))
def test_batched_replicates_match_the_per_replicate_loop_bitwise(name, monkeypatch):
    """Every replicate row equals the per-block numpy-generator loop bit for
    bit, NaN positions included, also when R spans several batches."""
    run = _batch_populations()[name]
    pop = run.pop
    monkeypatch.setattr(montecarlo, "BATCH_DRAWS", 7 * pop.n_individuals)
    assert montecarlo.batch_size(pop) == 7
    got = replicate_values(run, 30, first_replicate=11)
    want = reference_replicate_values(pop, run, ESTIMATOR_NAMES, 30, first=11)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)
    if name in ("all-single-armed", "zero-uptake"):
        assert np.isnan(got[:, ESTIMATOR_NAMES.index("ldt_hat")]).all()


def test_replication_bounds_are_checked_before_any_work():
    pop = make_population([["co"], ["co"]])
    for bad in (-1, 1, MAX_REPLICATIONS + 1, 10**15):
        with pytest.raises(InvalidConfig):
            replicate_values(_design(pop, k=1), bad)
    check_replications(MAX_REPLICATIONS)  # the bound itself is accepted
    # any non-negative replicate index addresses a stream, 2^32 and beyond too
    big = replicate_values(_design(pop, k=1), 2, first_replicate=2**32)
    want = reference_replicate_values(pop, _design(pop, k=1), ESTIMATOR_NAMES, 2, first=2**32)
    assert np.array_equal(big, want, equal_nan=True)
    with pytest.raises(InvalidDesign):
        replicate_values(_design(pop, k=1), 2, first_replicate=-1)


def _exact_design(outcome: dict):
    """A population of B=4 blocks of 2, three with a complier, and two vector
    mechanisms: at k=2 its design has 6 * 2^8 realizations."""
    cfg = DgpConfig(blocks=4, block_size=2, strata=(0.2, 0.5, 0.2, 0.1), complier_floor=False,
                    outcome=OutcomeConfig(intercept=(1.0, 1.0), direct=(2.0, 1.0),
                                          peer=(0.5, 0.5), interaction=(0.3, 0.3),
                                          curvature=(0.0, 0.2), noise_sd=0.5, **outcome))
    pop = build_population(cfg, np.random.default_rng(2))
    return pop, Mechanism("a", (0.7, 0.6)), Mechanism("b", (0.2, 0.35))


@pytest.mark.parametrize("outcome", [
    {"representation": "structural"},
    {"representation": "table"},
    {"representation": "table", "z_own": 0.4, "z_peer": -0.3},
], ids=["structural", "table", "encouragement-keyed"])
def test_unbiased_estimators_have_exact_means_at_their_targets(outcome):
    """The design's exact distribution (every arm subset, every encouragement
    vector) gives each unbiased estimator a mean equal to its exact target."""
    pop, a, b = _exact_design(outcome)
    realizations = list(exact_design_distribution(pop, a, b, k=2))
    assert len(realizations) == 6 * 2**8
    assert sum(w for w, _ in realizations) == pytest.approx(1.0, abs=1e-12)
    targets = exact_targets(pop, a, b)
    for name in ("ditt_hat_a", "ditt_hat_b", "pitt_hat_0", "pitt_hat_1"):
        mean = sum(w * battery[name] for w, battery in realizations)
        assert mean == pytest.approx(targets[name], rel=1e-12, abs=1e-12), name


def test_replicates_follow_the_exact_design_distribution():
    """20,000 replicates against the design's exact distribution. For every
    estimator: the mean given it is defined lies within 4 Monte Carlo
    standard errors of the exact one, the sd within 5% of the exact sd, and
    the undefined fraction within 0.01 of its exact probability."""
    pop, a, b = _exact_design({"representation": "structural"})
    realizations = list(exact_design_distribution(pop, a, b, k=2))
    w = np.array([w for w, _ in realizations])
    design = Design(pop, mech_a=a, mech_b=b, k=2, seed=1)
    values = replicate_values(design, 20_000)
    for name, drawn in zip(ESTIMATOR_NAMES, values.T):
        exact = np.array([battery[name] for _, battery in realizations])
        defined = np.isfinite(exact)
        p_defined = w[defined].sum()
        mean = w[defined] @ exact[defined] / p_defined
        sd = math.sqrt(w[defined] @ (exact[defined] - mean) ** 2 / p_defined)
        drawn = drawn[np.isfinite(drawn)]
        mcse = drawn.std(ddof=1) / math.sqrt(drawn.size)
        assert abs(drawn.mean() - mean) <= 4 * mcse, (name, drawn.mean(), mean)
        assert abs(drawn.std(ddof=1) - sd) <= 0.05 * sd, (name, drawn.std(ddof=1), sd)
        undefined = 1 - drawn.size / len(values)
        assert abs(undefined - (1 - p_defined)) <= 0.01, (name, undefined, 1 - p_defined)


def test_undefined_replicates_counted_not_fatal():
    # single-individual blocks: the uptake ratio is undefined every replicate
    pop = make_population([["co"], ["co"], ["co"]], direct=1.0)
    summary = replicate(_design(pop, k=1), 25, exact_targets(pop, PHI, PSI))
    et = summary.get("et_hat")
    assert et.n_undefined == 25
    assert et.n_defined == 0
    assert summary.get("ldt_hat").n_undefined == 25
    assert summary.get("ditt_hat_a").n_undefined == 0


def test_loose_standardized_bias_gate(rng):
    """The inverse-probability estimators are exactly unbiased, so their
    standardized bias behaves like |N(0,1)| at any replication count."""
    pop, a, b = equal_effect_monotone(rng, b_range=(8, 8), n_range=(4, 4))
    summary = replicate(Design(pop, mech_a=a, mech_b=b, k=4, seed=41), 3000,
                        exact_targets(pop, a, b))
    for name in ("ditt_hat_a", "ditt_hat_b", "pitt_hat_1", "pitt_hat_0"):
        s = summary.get(name)
        assert s.std_bias is not None and s.std_bias <= 4.0, (name, s.std_bias)


def test_et_hat_unbiased_under_scalar_mechanisms():
    """With one probability per block the encouraged set is exchangeable, so
    the ratio-of-means uptake contrast is conditionally unbiased; per-unit
    heterogeneous probabilities leave it only consistent, not unbiased."""
    pop = make_population([["co", "co", "at", "nt"]] * 8, direct=1.0)
    summary = replicate(Design(pop, mech_a=PHI, mech_b=PSI, k=4, seed=6), 3000,
                        exact_targets(pop, PHI, PSI))
    s = summary.get("et_hat")
    assert s.target == 0.5
    assert s.std_bias <= 4.0


def test_no_interference_peer_estimator_centered_at_zero(rng):
    pop = make_population([["co", "nt", "co"]] * 8, rng=rng,
                          peer=0.0, interaction=0.0, curvature=0.0)
    summary = replicate(Design(pop, mech_a=PHI, mech_b=PSI, k=4, seed=19), 1500,
                        exact_targets(pop, PHI, PSI))
    for name in ("pitt_hat_1", "pitt_hat_0"):
        s = summary.get(name)
        assert abs(s.target) <= 1e-12
        assert s.std_bias <= 4.0


def test_targets_match_exact_engine(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(2, 3), n_range=(2, 3))
    targets = exact_targets(pop, a, b)
    from peerenc.estimands import ditt, et, member_averages

    assert targets["ditt_hat_a"] == ditt(member_averages(pop, a)).population
    assert targets["ldt_hat"] == pytest.approx(
        ditt(member_averages(pop, a)).population / et(pop).population, abs=0
    )


def test_replication_floor():
    from peerenc.errors import InvalidConfig

    pop = make_population([["co"], ["co"]])
    with pytest.raises(InvalidConfig):
        replicate(_design(pop, k=1), 1, exact_targets(pop, PHI, PSI))


def test_mc_summary_to_text(rng):
    pop, a, b = equal_effect_monotone(rng, b_range=(2, 3), n_range=(2, 3))
    table = replicate(Design(pop, mech_a=a, mech_b=b, k=1, seed=2), 20,
                      exact_targets(pop, a, b)).to_text()
    assert "ditt_hat_a" in table and "std_bias" in table


def test_verify_theorems_all_pass_on_one_sided_equal_effects(rng):
    pop, a, b = one_sided_population(rng, b_range=(6, 8), n_range=(3, 5),
                                     equal_effect=True)
    report = _verify(pop, a, b, replications=400, seed=9)
    t1 = report.get("theorem_1")
    t2 = report.get("theorem_2")
    t3 = report.get("theorem_3[z=0]")
    assert t1.exact_ok and t1.identity.assumptions_ok
    assert t2.exact_ok
    assert t3.exact_ok and t3.identity.assumptions_ok
    assert report.mc.get(t1.plugin_estimator).std_bias is not None
    # theorem 3's plug-in at z=0 is the peer ITT estimator, judged against the rhs
    assert t3.plugin_estimator == "pitt_hat_0"
    assert report.mc.get("pitt_hat_0").target == t3.identity.rhs
    assert verification_passes(report)
    payload = json.loads(report.to_json())
    assert {t["name"] for t in payload["theorems"]} >= {"theorem_1", "theorem_2"}
    assert "theorem_1" in report.to_text()


def test_get_of_a_name_a_report_does_not_hold_is_a_key_error():
    report = _verify(make_population([["co", "co"], ["co", "co"]]), PHI, PSI,
                     replications=4, seed=1, k=1)
    with pytest.raises(KeyError, match="theorem_4"):
        report.get("theorem_4")
    with pytest.raises(KeyError, match="no_such_hat"):
        report.mc.get("no_such_hat")


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
    # a never-taker declines when encouraged: the z=1 check notes it, and
    # verify leaves the mirror variant out
    declines = make_population([["co", "nt"], ["co", "co"]])
    rep = theorem_3_check(member_averages(declines, PHI), member_averages(declines, PSI), z=1)
    assert rep.assumption_notes == (
        "mirror condition violated: someone declines treatment when encouraged",)
    assert not rep.assumptions_ok
    names = [t.name for t in verify_theorems(declines, PHI, PSI).theorems]
    assert names == ["theorem_1", "theorem_2", "theorem_3[z=0]"]


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
    the Monte Carlo added to its report none, and it reports what the public
    theorem checks report."""
    from peerenc import estimands

    pop = make_population([["co", "co", "co"], ["co", "co"], ["co", "co", "co"]])
    calls = []
    kernel = estimands.member_averages

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(estimands, "member_averages", counted)
    report = verify_theorems(pop, PHI, PSI)
    assert calls == [PHI, PSI]
    # the Monte Carlo verify adds is judged against the report's targets
    replicate(_design(pop, seed=3), 20, report.targets)
    assert calls == [PHI, PSI]
    assert [t.name for t in report.theorems] == [
        "theorem_1", "theorem_2", "theorem_3[z=0]", "theorem_3[z=1]"]
    a, b = kernel(pop, PHI), kernel(pop, PSI)
    # reports hold arrays, so they compare by their JSON
    assert report.get("theorem_1").identity.to_json() == estimands.theorem_1_check(a).to_json()
    assert report.get("theorem_2").identity.to_json() == estimands.theorem_2_check(a, b).to_json()
    for z in (0, 1):
        assert (report.get(f"theorem_3[z={z}]").identity.to_json()
                == estimands.theorem_3_check(a, b, z=z).to_json())


def _counted_designs(monkeypatch) -> list:
    """The list every Design construction appends the design to."""
    built = []
    check = design.Design.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(design.Design, "__post_init__", counted)
    return built


def test_a_run_validates_its_design_once_whatever_its_batch_count(monkeypatch):
    """The design is validated once, when it is built: replicate draws one
    batch or five, and summarizes them against the exact targets, without
    validating it again."""
    pop = make_population([["co", "nt", "co"], ["co", "at"], ["co", "co", "nt"]])
    monkeypatch.setattr(montecarlo, "BATCH_DRAWS", 4 * pop.n_individuals)
    built = _counted_designs(monkeypatch)
    run = Design(pop, PHI, PSI, k=1, seed=4)
    for batches in (1, 5):
        replicate(run, 4 * batches, exact_targets(pop, PHI, PSI))
    assert built == [run]


def test_verify_theorems_builds_no_design(monkeypatch):
    """verify_theorems runs the exact checks alone: it builds and validates
    no design and leaves the Monte Carlo summary to replicate."""
    pop = make_population([["co", "nt", "co"], ["co", "at"], ["co", "co", "nt"]])
    built = _counted_designs(monkeypatch)
    assert verify_theorems(pop, PHI, PSI).mc is None
    assert built == []


def test_verify_theorems_degenerate_uptake():
    pop = make_population([["nt", "nt"], ["nt", "at"]])
    report = verify_theorems(pop, PHI, PSI)
    t1 = report.get("theorem_1")
    assert t1.identity is None
    assert "ZeroEncouragementEffect" in t1.error
    assert not verification_passes(report)
    assert "degenerate" in report.to_text()


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


@pytest.mark.parametrize("run", ["replicate", "verify_theorems"])
@pytest.mark.parametrize("k, message", [
    (5, r"k=5 must leave both arms populated \(1\.\.2\)"),
    (0, r"k=0 must leave both arms populated \(1\.\.2\)"),
], ids=["k-too-large", "k-zero"])
def test_an_invalid_design_is_refused_before_any_kernel_work(monkeypatch, run, k, message):
    """A design is validated when it is built, so neither replicate nor a
    verification built as the CLI builds it reaches the exact engine with an
    invalid one: an InvalidDesign is raised and no kernel is evaluated."""
    from peerenc import estimands

    def no_kernel(*args, **kwargs):
        raise AssertionError("the exact kernel ran before the design was validated")

    monkeypatch.setattr(estimands, "member_averages", no_kernel)
    pop = make_population([["co", "nt"], ["co", "at"], ["co", "co"]])
    with pytest.raises(InvalidDesign, match=message):
        if run == "replicate":
            replicate(Design(pop, PHI, PSI, k=k, seed=1), 10, exact_targets(pop, PHI, PSI))
        else:
            _verify(pop, PHI, PSI, replications=10, seed=1, k=k)
