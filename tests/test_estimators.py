import numpy as np
import pytest

from peerenc.design import DesignConfig, ExperimentData, run_design
from peerenc.errors import (
    AllBlocksUndefined,
    EmptyArm,
    ZeroEncouragementEffectEstimate,
)
from peerenc.estimators import (
    ditt_hat,
    estimate_report,
    estimator_battery,
    et_hat,
    ldt_hat,
    lpt0_hat,
    lpt_diff_hat,
    pitt_hat,
    yhat_block,
    yhat_pop,
)
from peerenc.mechanisms import Mechanism
from conftest import make_population
from fuzz import equal_effect_monotone, varying_effect_monotone
from oracles import oracle_estimator_battery

PHI = Mechanism("phi", 0.8)
PSI = Mechanism("psi", 0.2)


def build_data(sizes, s, z, d, y, p_blocks) -> ExperimentData:
    sizes = np.asarray(sizes, dtype=int)
    return ExperimentData(
        sizes=sizes,
        s=np.asarray(s, dtype=np.int8),
        block_id=np.repeat(np.arange(sizes.size), sizes),
        z=np.asarray(z, dtype=np.int8),
        d=np.asarray(d, dtype=np.int8),
        y=np.asarray(y, dtype=float),
        p_enc=np.concatenate([np.full(n, p) for n, p in zip(sizes, p_blocks)]),
    )


def test_yhat_block_constant_outcomes_balanced_draw():
    c = 3.5
    data = build_data(
        sizes=[4, 1], s=[1, 0],
        z=[1, 1, 0, 0, 1], d=[1, 1, 0, 0, 1], y=[c] * 5, p_blocks=[0.5, 0.5],
    )
    assert yhat_block(data, 0, 1) == pytest.approx(2 * c / (4 * 0.5), abs=0)
    assert yhat_block(data, 0, 1) == pytest.approx(c, abs=0)


def test_yhat_block_empty_arm_is_zero_not_error():
    data = build_data(
        sizes=[3, 1], s=[1, 0],
        z=[1, 1, 1, 0], d=[1, 1, 1, 0], y=[2.0, 2.0, 2.0, 2.0], p_blocks=[0.5, 0.5],
    )
    assert yhat_block(data, 0, 0) == 0.0


def test_yhat_block_uses_per_unit_probabilities():
    sizes = np.array([2, 1])
    data = ExperimentData(
        sizes=sizes,
        s=np.array([1, 0], dtype=np.int8),
        block_id=np.repeat(np.arange(2), sizes),
        z=np.array([1, 0, 1], dtype=np.int8),
        d=np.array([1, 0, 1], dtype=np.int8),
        y=np.array([4.0, 6.0, 1.0]),
        p_enc=np.array([0.8, 0.4, 0.5]),
    )
    assert yhat_block(data, 0, 1) == pytest.approx(4.0 / 0.8 / 2, abs=1e-15)
    assert yhat_block(data, 0, 0) == pytest.approx(6.0 / 0.6 / 2, abs=1e-15)


def test_yhat_pop_and_empty_arm():
    data = build_data(
        sizes=[1, 1, 1], s=[1, 1, 1],
        z=[1, 0, 1], d=[1, 0, 1], y=[2.0, 4.0, 6.0], p_blocks=[0.5] * 3,
    )
    expected = (2.0 / 0.5 + 0.0 + 6.0 / 0.5) / 3
    assert yhat_pop(data, 1, "a") == pytest.approx(expected, abs=1e-15)
    with pytest.raises(EmptyArm):
        yhat_pop(data, 1, "b")


def test_yhat_pop_rejects_unknown_arm():
    data = build_data(
        sizes=[2, 2], s=[1, 0],
        z=[1, 0, 1, 0], d=[1, 0, 1, 0], y=[1.0, 2.0, 3.0, 4.0], p_blocks=[0.6, 0.3],
    )
    for arm in ("x", "B", None):
        with pytest.raises(ValueError, match="arm"):
            yhat_pop(data, 1, arm)
        with pytest.raises(ValueError, match="arm"):
            ditt_hat(data, arm)


def test_single_block_arm_equals_block_value():
    data = build_data(
        sizes=[2, 2], s=[1, 0],
        z=[1, 0, 1, 0], d=[1, 0, 1, 0], y=[1.0, 2.0, 3.0, 4.0], p_blocks=[0.6, 0.3],
    )
    assert yhat_pop(data, 1, "b") == yhat_block(data, 1, 1)


def test_constant_zero_outcomes_give_exact_zero_estimates():
    pop = make_population([["co", "nt"], ["co", "at"], ["co", "co"]], intercept=0.0)
    cfg = DesignConfig(mech_a=PHI, mech_b=PSI, k=1, seed=3)
    for r in range(5):
        data = run_design(pop, cfg, replicate=r)
        assert ditt_hat(data, "a") == 0.0
        assert pitt_hat(data, 1) == 0.0


def test_et_hat_all_compliers_block_is_one():
    data = build_data(
        sizes=[3, 3], s=[1, 0],
        z=[1, 0, 1, 0, 1, 0], d=[1, 0, 1, 0, 1, 0],
        y=np.zeros(6), p_blocks=[0.5, 0.5],
    )
    est = et_hat(data)
    assert est.value == 1.0
    assert est.per_block == (1.0, 1.0)
    assert not est.dropped


def test_et_hat_excludes_single_armed_blocks_with_diagnostics():
    data = build_data(
        sizes=[2, 2], s=[1, 0],
        z=[1, 1, 1, 0], d=[1, 1, 1, 0], y=np.zeros(4), p_blocks=[0.5, 0.5],
    )
    est = et_hat(data)
    assert est.per_block[0] != est.per_block[0]  # NaN
    assert est.value == 1.0
    assert est.dropped == ((0, "no units with Z=0"),)


def test_et_hat_all_blocks_undefined():
    data = build_data(
        sizes=[1, 1], s=[1, 0],
        z=[1, 0], d=[1, 0], y=np.zeros(2), p_blocks=[0.5, 0.5],
    )
    with pytest.raises(AllBlocksUndefined):
        et_hat(data)


def test_ratio_estimators_guard_zero_uptake():
    pop = make_population([["nt"] * 8, ["nt"] * 8], intercept=1.0)
    cfg = DesignConfig(mech_a=Mechanism("a", 0.5), mech_b=Mechanism("b", 0.3), k=1, seed=1)
    data = run_design(pop, cfg, replicate=0)
    with pytest.raises(ZeroEncouragementEffectEstimate):
        ldt_hat(data)
    with pytest.raises(ZeroEncouragementEffectEstimate):
        lpt_diff_hat(data)
    assert lpt0_hat(data) == pitt_hat(data, 0)


def test_all_complier_realizations_ldt_equals_ditt(rng):
    pop = make_population([["co"] * 4] * 4, rng=rng)
    cfg = DesignConfig(mech_a=PHI, mech_b=PSI, k=2, seed=21)
    checked = 0
    for r in range(20):
        data = run_design(pop, cfg, replicate=r)
        try:
            est = et_hat(data)
        except AllBlocksUndefined:
            continue
        if est.value == 1.0:
            assert ldt_hat(data) == ditt_hat(data, "a")
            checked += 1
    assert checked > 0


def test_outcome_scaling_linearity(rng):
    pop, a, b = varying_effect_monotone(rng)
    cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=10)
    data = run_design(pop, cfg, replicate=0)
    scaled = ExperimentData(
        sizes=data.sizes, s=data.s, block_id=data.block_id,
        z=data.z, d=data.d, y=data.y * 2.0, p_enc=data.p_enc,
    )
    # doubling is exact in binary floating point, so equality is bitwise
    assert ditt_hat(scaled, "a") == 2.0 * ditt_hat(data, "a")
    assert pitt_hat(scaled, 1) == 2.0 * pitt_hat(data, 1)
    assert et_hat(scaled).value == et_hat(data).value
    assert ldt_hat(scaled) == 2.0 * ldt_hat(data)


def test_mechanism_relabel_negates_pitt(rng):
    pop, a, b = varying_effect_monotone(rng)
    cfg = DesignConfig(mech_a=a, mech_b=b, k=2, seed=14)
    data = run_design(pop, cfg, replicate=0)
    relabeled = ExperimentData(
        sizes=data.sizes, s=(1 - data.s).astype(np.int8), block_id=data.block_id,
        z=data.z, d=data.d, y=data.y, p_enc=data.p_enc,
    )
    for z in (0, 1):
        assert pitt_hat(relabeled, z) == -pitt_hat(data, z)


def test_estimate_report_contents(rng):
    pop, a, b = varying_effect_monotone(rng, b_range=(4, 6), n_range=(2, 4))
    cfg = DesignConfig(mech_a=a, mech_b=b, k=2, seed=8)
    data = run_design(pop, cfg, replicate=0)
    report = estimate_report(data)
    assert report.arm_sizes == (2, pop.n_blocks - 2)
    assert report.ldt_hat == pytest.approx(ditt_hat(data, "a") / et_hat(data).value)
    assert report.lpt0_hat == pitt_hat(data, 0)
    text = report.to_json()
    assert "et_blocks_dropped" in text
    if et_hat(data).dropped:
        assert report.et_blocks_dropped


def test_battery_bitwise_matches_individual_estimators(rng):
    for r in range(8):
        pop, a, b = varying_effect_monotone(rng, b_range=(3, 6), n_range=(2, 5))
        cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=51)
        data = run_design(pop, cfg, replicate=r)
        battery = estimator_battery(data)
        assert battery["ditt_hat_a"] == ditt_hat(data, "a")
        assert battery["ditt_hat_b"] == ditt_hat(data, "b")
        assert battery["pitt_hat_1"] == pitt_hat(data, 1)
        assert battery["pitt_hat_0"] == pitt_hat(data, 0)
        assert battery["lpt0_hat"] == lpt0_hat(data)
        try:
            uptake = et_hat(data).value
        except AllBlocksUndefined:
            assert battery["et_hat"] != battery["et_hat"]  # NaN convention
            assert battery["ldt_hat"] != battery["ldt_hat"]
            continue
        assert battery["et_hat"] == uptake
        try:
            assert battery["ldt_hat"] == ldt_hat(data)
            assert battery["lpt_diff_hat"] == lpt_diff_hat(data)
        except ZeroEncouragementEffectEstimate:
            assert battery["ldt_hat"] != battery["ldt_hat"]


def test_estimate_report_from_ingested_csv(tmp_path, rng):
    pop, a, b = varying_effect_monotone(rng)
    cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=30)
    data = run_design(pop, cfg, replicate=4)
    path = tmp_path / "run.csv"
    data.to_csv(path)
    loaded = ExperimentData.from_csv(path, a, b)
    assert estimate_report(loaded).to_json() == estimate_report(data).to_json()


def test_estimate_report_csv_export(rng):
    pop, a, b = varying_effect_monotone(rng)
    cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=12)
    report = estimate_report(run_design(pop, cfg, replicate=0))
    lines = report.to_csv().splitlines()
    assert lines[0] == "field,value"
    fields = {line.split(",", 1)[0] for line in lines[1:]}
    assert {"ditt_hat_a", "et_hat", "lpt0_hat", "arm_size_a"} <= fields


def _fuzzed_data(rng, single_armed=0.0, uptake=True) -> ExperimentData:
    """Unequal block sizes, per-unit encouragement probabilities (as a vector
    mechanism gives), both arms populated; each block loses one encouragement
    value with probability single_armed, and uptake=False makes D constant."""
    b = int(rng.integers(2, 12))
    sizes = rng.integers(1, 8, size=b)
    s = rng.permutation(np.arange(b) < int(rng.integers(1, b)))
    p = rng.uniform(0.05, 0.95, size=sizes.sum())
    z = rng.random(sizes.sum()) < p
    starts = np.concatenate(([0], np.cumsum(sizes)))
    for i in np.flatnonzero(rng.random(b) < single_armed):
        z[starts[i]:starts[i + 1]] = rng.integers(2)
    d = rng.integers(2, size=sizes.sum()) if uptake else np.zeros(sizes.sum())
    return ExperimentData(
        sizes=sizes, s=s.astype(np.int8), block_id=np.repeat(np.arange(b), sizes),
        z=z.astype(np.int8), d=d.astype(np.int8), y=rng.normal(1.0, 3.0, size=sizes.sum()),
        p_enc=p,
    )


def _assert_battery_matches_oracle(data):
    battery = estimator_battery(data)
    oracle = oracle_estimator_battery(data.sizes.tolist(), data.s.tolist(), data.z.tolist(),
                                      data.d.tolist(), data.y.tolist(), data.p_enc.tolist())
    assert battery.keys() == oracle.keys()
    for key, want in oracle.items():
        assert battery[key] == pytest.approx(want, rel=1e-12, abs=1e-12, nan_ok=True), key


@pytest.mark.parametrize("single_armed, uptake", [(0.0, True), (0.4, True), (1.0, True),
                                                  (0.2, False)],
                         ids=["both-z", "some-single-armed", "all-undefined", "zero-uptake"])
def test_battery_matches_loop_oracle(rng, single_armed, uptake):
    for _ in range(40):
        _assert_battery_matches_oracle(_fuzzed_data(rng, single_armed, uptake))


def test_battery_matches_loop_oracle_on_design_realizations(rng):
    for r in range(20):
        fuzzer = equal_effect_monotone if r % 2 else varying_effect_monotone
        pop, a, b = fuzzer(rng, b_range=(2, 8), n_range=(1, 6))
        cfg = DesignConfig(mech_a=a, mech_b=b, k=1, seed=60 + r)
        _assert_battery_matches_oracle(run_design(pop, cfg, replicate=r))
