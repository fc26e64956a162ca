"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (the status lines bypass
capture). Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from peerenc.cli import main
from peerenc.design import DesignConfig, run_design
from peerenc.estimands import (
    compute_estimand_report,
    identity_ok,
    lpt,
    pitt,
    theorem_1_check,
    theorem_2_check,
    theorem_3_check,
)
from peerenc.estimators import et_hat, ldt_hat
from peerenc.mechanisms import Mechanism
from peerenc.montecarlo import ESTIMATOR_NAMES, exact_targets, replicate, replicate_values
from peerenc.population import (
    ComplianceType,
    DgpConfig,
    OutcomeConfig,
    build_population,
    convert_to_tables,
)
from conftest import person, population, structural
from fuzz import defier_population, equal_effect_monotone, one_sided_population, \
    varying_effect_monotone
from oracles import oracle_theorem_gaps, pooled_wald


@pytest.fixture
def announce(capsys):
    def _announce(line: str):
        with capsys.disabled():
            print(line)

    return _announce


def _campaign_features(pop, mech_a):
    has_table = bool((~pop.structural).any())
    has_structural = bool(pop.structural.any())
    vector_mech = mech_a.arity is not None
    return has_table, has_structural, vector_mech


def test_criterion_01_theorem_1_exact_identity(announce):
    """>=200 fuzzed monotone populations with a common per-block uptake
    effect: |DITT(1,0,phi)/ET(1,0) - LDT(1,0,phi,Co)| within 1e-9 relative /
    1e-12 absolute. Runtime < 60 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    n_pops = 200
    worst = 0.0
    tables = structurals = vectors = 0
    failures = []
    for _ in range(n_pops):
        pop, a, _ = equal_effect_monotone(rng, b_range=(2, 20), n_range=(1, 10))
        rep = theorem_1_check(pop, a)
        worst = max(worst, abs(rep.gap))
        if not rep.passed:
            failures.append(rep.gap)
        t, s, v = _campaign_features(pop, a)
        tables += t
        structurals += s
        vectors += v
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0 and tables > 0 and structurals > 0 and vectors > 0
    announce(
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} - theorem 1 exact on {n_pops} "
        f"populations, worst |gap|={worst:.2e}, {elapsed:.1f}s"
    )
    assert not failures, failures[:3]
    assert tables > 0 and structurals > 0 and vectors > 0
    assert elapsed < 60.0


def test_criterion_02_theorem_2_exact_identity(announce):
    """Same fuzz family: |(PITT(1)-PITT(0))/ET - (LPT(1,Co)-LPT(0,Co))|
    within 1e-9 relative / 1e-12 absolute. Runtime < 60 s."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    n_pops = 200
    worst = 0.0
    failures = []
    for _ in range(n_pops):
        pop, a, b = equal_effect_monotone(rng, b_range=(2, 20), n_range=(1, 10))
        rep = theorem_2_check(pop, a, b)
        worst = max(worst, abs(rep.gap))
        if not rep.passed:
            failures.append(rep.gap)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    announce(
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} - theorem 2 exact on {n_pops} "
        f"populations, worst |gap|={worst:.2e}, {elapsed:.1f}s"
    )
    assert not failures, failures[:3]
    assert elapsed < 60.0


def test_criterion_03_theorem_3_exact_identity(announce):
    """One-sided populations: PITT(0) = LPT(0); mirror populations
    (everyone encouraged takes treatment): PITT(1) = LPT(1). Runtime < 30 s."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    n_pops = 200
    failures = []
    worst = 0.0
    for _ in range(n_pops):
        pop, a, b = one_sided_population(rng, b_range=(2, 12), n_range=(1, 8))
        rep = theorem_3_check(pop, a, b, z=0)
        worst = max(worst, abs(rep.gap))
        if not (rep.passed and rep.assumptions_ok):
            failures.append(("z=0", rep.gap))
        pop_m, a_m, b_m = one_sided_population(rng, b_range=(2, 12), n_range=(1, 8),
                                               mirror=True)
        rep_m = theorem_3_check(pop_m, a_m, b_m, z=1)
        worst = max(worst, abs(rep_m.gap))
        if not (rep_m.passed and rep_m.assumptions_ok):
            failures.append(("z=1", rep_m.gap))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    announce(
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} - theorem 3 exact on {n_pops} "
        f"one-sided + {n_pops} mirror populations, worst |gap|={worst:.2e}, {elapsed:.1f}s"
    )
    assert not failures, failures[:3]
    assert elapsed < 30.0


def test_criterion_04_negative_identification(announce):
    """A searched defier population gives theorem 1 and 2 gaps >= 0.01 and
    an exclusion-violating population gives a theorem 1 gap >= 0.01, all
    confirmed by the full-enumeration oracle."""
    defier_found = None
    for seed in range(200):
        pop, a, b = defier_population(np.random.default_rng(seed))
        rep1 = theorem_1_check(pop, a)
        rep2 = theorem_2_check(pop, a, b)
        if abs(rep1.gap) >= 0.01 and abs(rep2.gap) >= 0.01:
            defier_found = (pop, a, b, rep1, rep2, seed)
            break
    assert defier_found is not None, "no defier population with material gaps found"
    pop, a, b, rep1, rep2, seed = defier_found
    assert not rep1.assumptions_ok
    gap1_oracle, gap2_oracle = oracle_theorem_gaps(pop, a, b)
    assert rep1.gap == pytest.approx(gap1_oracle, abs=1e-10)
    assert rep2.gap == pytest.approx(gap2_oracle, abs=1e-10)

    excl_found = None
    for seed2 in range(200):
        cfg = DgpConfig(
            blocks=2, block_size=3, strata=(0.2, 0.6, 0.2, 0.0),
            outcome=OutcomeConfig(representation="table", direct=(2.0, 0.5),
                                  peer=(0.4, 0.2), z_own=0.6, z_peer=0.3),
            monotone=True,
        )
        epop = build_population(cfg, np.random.default_rng(seed2))
        erep = theorem_1_check(epop, a)
        if abs(erep.gap) >= 0.01:
            excl_found = (epop, erep, seed2)
            break
    assert excl_found is not None, "no exclusion-violating population with material gap"
    epop, erep, seed2 = excl_found
    assert not erep.assumptions_ok
    egap_oracle, _ = oracle_theorem_gaps(epop, a, b)
    assert erep.gap == pytest.approx(egap_oracle, abs=1e-10)

    announce(
        "ACCEPTANCE 4: PASS - defier gaps "
        f"|{rep1.gap:.3f}|,|{rep2.gap:.3f}| and exclusion-violation gap "
        f"|{erep.gap:.3f}| all >= 0.01, oracle-confirmed"
    )


def test_criterion_05_itt_unbiasedness(announce):
    """Fixed monotone population (B=20, n_i=6), R=10,000: standardized bias
    of the direct and peer ITT estimators <= 3. Runtime < 2 min."""
    cfg = DgpConfig(
        blocks=20, block_size=6, strata=(0.2, 0.5, 0.3, 0.0),
        outcome=OutcomeConfig(direct=(2.0, 1.0), peer=(0.5, 0.3),
                              interaction=(0.3, 0.2), noise_sd=1.0),
        monotone=True,
    )
    pop = build_population(cfg, np.random.default_rng(1))
    dcfg = DesignConfig(mech_a=Mechanism("phi", 0.7), mech_b=Mechanism("psi", 0.3),
                        k=10, seed=99)
    t0 = time.perf_counter()
    summary = replicate(pop, dcfg, 10_000)
    elapsed = time.perf_counter() - t0
    biases = {
        name: summary.get(name).std_bias
        for name in ("ditt_hat_a", "ditt_hat_b", "pitt_hat_1", "pitt_hat_0")
    }
    ok = all(v is not None and v <= 3.0 for v in biases.values()) and elapsed < 120.0
    detail = " ".join(f"{k}={v:.2f}" for k, v in biases.items())
    announce(f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} - std bias {detail}, {elapsed:.1f}s")
    for name, value in biases.items():
        assert value is not None and value <= 3.0, (name, value)
    assert elapsed < 120.0


def test_criterion_06_no_interference_reduction(announce):
    """No-interference DGP: peer estimands are exactly zero and the plug-in
    ratio estimator equals an independently coded pooled Wald oracle on
    every realization, within 1e-10."""
    rng = np.random.default_rng(606)
    blocks = []
    for _ in range(12):
        inds = [
            person("co", structural(intercept=float(rng.normal(0, 0.5)),
                                    direct=float(rng.normal(2, 0.7)),
                                    noise=float(rng.normal(0, 0.3))))
            for _ in range(6)
        ]
        blocks.append(inds)
    pop = population(blocks)
    assert pop.monotone and pop.one_sided and pop.exclusion_ok
    a = Mechanism("phi", 0.7)
    b = Mechanism("psi", 0.3)

    worst_exact = 0.0
    for z in (0, 1):
        worst_exact = max(worst_exact, abs(pitt(pop, z, a, b).population))
        worst_exact = max(worst_exact, abs(lpt(pop, z, a, b).population))
    assert worst_exact <= 1e-12

    dcfg = DesignConfig(mech_a=a, mech_b=b, k=6, seed=44)
    worst_match = 0.0
    for r in range(200):
        data = run_design(pop, dcfg, replicate=r)
        assert et_hat(data).value == 1.0  # compliers: uptake contrast is exact
        plug_in = ldt_hat(data)
        arm_units = np.concatenate(
            [np.arange(data.starts[i], data.starts[i + 1])
             for i in range(data.n_blocks) if data.s[i] == 1]
        )
        oracle = pooled_wald(data.y[arm_units], data.z[arm_units],
                             data.d[arm_units], data.p_enc[arm_units])
        worst_match = max(worst_match, abs(plug_in - oracle))
    ok = worst_exact <= 1e-12 and worst_match <= 1e-10
    announce(
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} - peer estimands <= {worst_exact:.1e}, "
        f"worst plug-in vs Wald oracle gap {worst_match:.2e} over 200 realizations"
    )
    assert worst_match <= 1e-10


def test_criterion_07_structural_vs_enumeration(announce):
    """50 random populations (n_i <= 10): the closed-form moment route and
    the full-enumeration route agree on every estimand within 1e-10."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for idx in range(50):
        if idx % 2 == 0:
            pop, a, b = equal_effect_monotone(rng, b_range=(2, 6), n_range=(1, 10))
        else:
            pop, a, b = varying_effect_monotone(rng, b_range=(2, 6), n_range=(1, 6))
        structural = compute_estimand_report(pop, a, b)
        enumerated = compute_estimand_report(convert_to_tables(pop), a, b)
        assert structural.entries.keys() == enumerated.entries.keys()
        for key, summary in structural.entries.items():
            other = enumerated.entries[key]
            worst = max(worst, abs(summary.population - other.population))
            for x, y in zip(summary.per_block, other.per_block):
                worst = max(worst, abs(x - y))
    ok = worst <= 1e-10
    announce(
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} - moments vs enumeration, "
        f"worst |gap|={worst:.2e} over 50 populations"
    )
    assert worst <= 1e-10


def test_criterion_08_ratio_estimator_consistency(announce):
    """MC mean of the plug-in ratio estimator approaches the exact complier
    direct effect as B grows through 10, 50, 200 (R=5,000 each): absolute
    bias strictly decreasing. Runtime < 5 min."""
    def block_template(rng):
        kinds = ["co", "co"] + [("at", "nt")[int(rng.integers(2))] for _ in range(2)]
        rng.shuffle(kinds)
        return [
            person(k, structural(intercept=float(rng.normal(0, 0.2)),
                                 direct=float(rng.normal(4, 0.5)),
                                 peer=float(rng.normal(0.3, 0.1)),
                                 interaction=float(rng.normal(0.2, 0.1)),
                                 noise=float(rng.normal(0, 0.1))))
            for k in kinds
        ]

    rng = np.random.default_rng(2)
    all_blocks = tuple(block_template(rng) for _ in range(200))
    a = Mechanism("phi", 0.75)
    b = Mechanism("psi", 0.25)
    col = ESTIMATOR_NAMES.index("ldt_hat")
    t0 = time.perf_counter()
    biases = []
    for n_blocks in (10, 50, 200):
        pop = population(all_blocks[:n_blocks])
        cfg = DesignConfig(mech_a=a, mech_b=b, k=n_blocks // 2, seed=777)
        values = replicate_values(pop, cfg, 5000)[:, col]
        defined = values[np.isfinite(values)]
        target = exact_targets(pop, cfg)["ldt_hat"]
        biases.append(abs(float(defined.mean()) - target))
    elapsed = time.perf_counter() - t0
    decreasing = biases[0] > biases[1] > biases[2]
    ok = decreasing and elapsed < 300.0
    announce(
        f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} - |bias| at B=(10,50,200): "
        f"({biases[0]:.4f}, {biases[1]:.4f}, {biases[2]:.4f}), {elapsed:.0f}s"
    )
    assert decreasing, biases
    assert elapsed < 300.0


def test_criterion_09_determinism(announce, tmp_path):
    """Identical config + seed give byte-identical population files, realized
    data CSVs, and reports, regardless of --threads."""
    cfg = {
        "seed": 90909,
        "dgp": {
            "blocks": 6,
            "block_size": 4,
            "strata": {"complier": 1.0},
            "outcome": {"representation": "mixed", "direct": [2.0, 0.5],
                        "peer": [0.4, 0.2], "interaction": 0.2, "noise_sd": 0.5},
        },
        "mechanisms": [{"name": "phi", "p": 0.7}, {"name": "psi", "p": 0.3}],
        "design": {"mech_a": "phi", "mech_b": "psi", "k": 3},
        "mc": {"replications": 300},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    pops = []
    for tag in ("p1", "p2"):
        out = tmp_path / f"{tag}.json"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        pops.append(out.read_bytes())
    assert pops[0] == pops[1]

    sims, datas, verifies = [], [], []
    codes = []
    for threads, tag in (("1", "t1"), ("4", "t4"), ("1", "t1b")):
        sim_out = tmp_path / f"sim_{tag}.json"
        data_out = tmp_path / f"data_{tag}.csv"
        ver_out = tmp_path / f"ver_{tag}.json"
        assert main(["simulate", "--config", str(cfg_path), "--pop", str(tmp_path / "p1.json"),
                     "--threads", threads, "--out", str(sim_out),
                     "--dump-data", str(data_out)]) == 0
        codes.append(main(["verify", "--config", str(cfg_path),
                           "--pop", str(tmp_path / "p1.json"),
                           "--threads", threads, "--out", str(ver_out)]))
        sims.append(sim_out.read_bytes())
        datas.append(data_out.read_bytes())
        verifies.append(ver_out.read_bytes())
    ok = (
        pops[0] == pops[1]
        and sims[0] == sims[1] == sims[2]
        and datas[0] == datas[1] == datas[2]
        and verifies[0] == verifies[1] == verifies[2]
        and codes[0] == codes[1] == codes[2] == 0
    )
    announce(
        f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} - population/data/report bytes "
        f"identical across reruns and thread counts"
    )
    assert sims[0] == sims[1] == sims[2]
    assert datas[0] == datas[1] == datas[2]
    assert verifies[0] == verifies[1] == verifies[2]
    assert codes == [0, 0, 0]
