import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerenc import estimators
from peerenc.design import Design, ExperimentData, draw_validated, run_design
from peerenc.errors import AllBlocksUndefined, InvalidData
from peerenc.estimators import ESTIMATOR_NAMES, estimate_report, estimator_battery
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
        z=np.asarray(z, dtype=np.int8),
        d=np.asarray(d, dtype=np.int8),
        y=np.asarray(y, dtype=float),
        p_enc=np.concatenate([np.full(n, p) for n, p in zip(sizes, p_blocks)]),
    )


def test_a_ratio_estimate_beyond_the_float_range_is_undefined():
    """The uptake estimate is (1/2 - 1/3) / 2 = 1/12 and the direct ITT
    estimate 4e307 / 1.5, both finite; their ratio is not, and reads inf
    with no RuntimeWarning (pytest makes one an error)."""
    data = build_data(
        sizes=[3, 4], s=[1, 0],
        z=[1, 1, 0, 1, 0, 0, 0], d=[1, 0, 0, 0, 1, 0, 0], y=[4e307] + [0.0] * 6,
        p_blocks=[0.5, 0.5],
    )
    battery = estimator_battery(data)
    assert battery["et_hat"] == pytest.approx(1 / 12, rel=1e-15)
    assert np.isfinite(battery["ditt_hat_a"])
    assert battery["ldt_hat"] == battery["lpt_diff_hat"] == np.inf


def test_yhat_block_constant_outcomes_balanced_draw():
    c = 3.5
    data = build_data(
        sizes=[4, 1], s=[1, 0],
        z=[1, 1, 0, 0, 1], d=[1, 1, 0, 0, 1], y=[c] * 5, p_blocks=[0.5, 0.5],
    )
    battery = estimator_battery(data)
    # arm A is block 0 alone, and arm B's block 1 has no Z=0 unit (its z=0
    # mean is 0), so pitt_hat_0 reads block 0's z=0 mean and ditt_hat_a the
    # gap between block 0's z=1 and z=0 means
    assert battery["pitt_hat_0"] == pytest.approx(2 * c / (4 * 0.5), abs=0)
    assert battery["pitt_hat_0"] == pytest.approx(c, abs=0)
    assert battery["ditt_hat_a"] == 0.0


def test_yhat_block_empty_arm_is_zero_not_error():
    data = build_data(
        sizes=[3, 1], s=[1, 0],
        z=[1, 1, 1, 0], d=[1, 1, 1, 0], y=[2.0, 2.0, 2.0, 2.0], p_blocks=[0.5, 0.5],
    )
    battery = estimator_battery(data)
    # block 0 has no Z=0 unit: its z=0 mean is 0, not an error; every
    # other block mean is 2.0 / 0.5 = 4.0
    assert battery["ditt_hat_a"] == 4.0 - 0.0
    assert battery["pitt_hat_0"] == 0.0 - 4.0


def test_yhat_block_uses_per_unit_probabilities():
    sizes = np.array([2, 1])
    data = ExperimentData(
        sizes=sizes,
        s=np.array([1, 0], dtype=np.int8),
        z=np.array([1, 0, 1], dtype=np.int8),
        d=np.array([1, 0, 1], dtype=np.int8),
        y=np.array([4.0, 6.0, 1.0]),
        p_enc=np.array([0.8, 0.4, 0.5]),
    )
    battery = estimator_battery(data)
    # arm B's block 1 has no Z=0 unit, so pitt_hat_0 is block 0's z=0 mean
    # and pitt_hat_0 + ditt_hat_a its z=1 mean
    assert battery["pitt_hat_0"] == pytest.approx(6.0 / 0.6 / 2, abs=1e-15)
    assert battery["pitt_hat_0"] + battery["ditt_hat_a"] == pytest.approx(4.0 / 0.8 / 2,
                                                                         abs=1e-15)


def test_yhat_pop_and_empty_arm():
    with pytest.raises(InvalidData, match="^no block in arm B$"):
        build_data(
            sizes=[1, 1, 1], s=[1, 1, 1],
            z=[1, 0, 1], d=[1, 0, 1], y=[2.0, 4.0, 6.0], p_blocks=[0.5] * 3,
        )
    # the same three arm-A blocks beside one arm-B block without a Z=1 unit
    # (z=1 mean 0): pitt_hat_1 reads arm A's z=1 mean
    data = build_data(
        sizes=[1, 1, 1, 1], s=[1, 1, 1, 0],
        z=[1, 0, 1, 0], d=[1, 0, 1, 0], y=[2.0, 4.0, 6.0, 8.0], p_blocks=[0.5] * 4,
    )
    expected = (2.0 / 0.5 + 0.0 + 6.0 / 0.5) / 3
    assert estimator_battery(data)["pitt_hat_1"] == pytest.approx(expected, abs=1e-15)


def test_single_block_arm_equals_block_value():
    data = build_data(
        sizes=[2, 2], s=[1, 0],
        z=[1, 0, 1, 0], d=[1, 0, 1, 0], y=[1.0, 2.0, 3.0, 4.0], p_blocks=[0.6, 0.3],
    )
    # a one-block arm's mean is that block's value, bitwise
    block_1 = (3.0 / 0.3 + 0.0) / 2 - (0.0 + 4.0 / 0.7) / 2
    assert estimator_battery(data)["ditt_hat_b"] == block_1


def test_constant_zero_outcomes_give_exact_zero_estimates():
    pop = make_population([["co", "nt"], ["co", "at"], ["co", "co"]], intercept=0.0)
    design = Design(pop, mech_a=PHI, mech_b=PSI, k=1, seed=3)
    for r in range(5):
        battery = estimator_battery(run_design(design, replicate=r))
        assert battery["ditt_hat_a"] == 0.0
        assert battery["pitt_hat_1"] == 0.0


def test_et_hat_all_compliers_block_is_one():
    data = build_data(
        sizes=[3, 3], s=[1, 0],
        z=[1, 0, 1, 0, 1, 0], d=[1, 0, 1, 0, 1, 0],
        y=np.zeros(6), p_blocks=[0.5, 0.5],
    )
    report = estimate_report(data)
    # no block is dropped, and a block contrast is at most 1, so a pooled
    # value of 1.0 means both blocks are 1.0
    assert report.et_hat == 1.0
    assert report.et_blocks_dropped == ()


def test_et_hat_excludes_single_armed_blocks_with_diagnostics():
    data = build_data(
        sizes=[2, 2], s=[1, 0],
        z=[1, 1, 1, 0], d=[1, 1, 1, 0], y=np.zeros(4), p_blocks=[0.5, 0.5],
    )
    report = estimate_report(data)
    assert report.et_hat == 1.0
    assert report.et_blocks_dropped == ((0, "no units with Z=0"),)
    assert estimator_battery(data)["et_hat"] == 1.0


def test_et_hat_all_blocks_undefined():
    data = build_data(
        sizes=[1, 1], s=[1, 0],
        z=[1, 0], d=[1, 0], y=np.zeros(2), p_blocks=[0.5, 0.5],
    )
    with pytest.raises(AllBlocksUndefined):
        estimate_report(data)
    assert np.isnan(estimator_battery(data)["et_hat"])


def test_ratio_estimators_guard_zero_uptake():
    pop = make_population([["nt"] * 8, ["nt"] * 8], intercept=1.0)
    design = Design(pop, mech_a=Mechanism("a", 0.5), mech_b=Mechanism("b", 0.3), k=1, seed=1)
    data = run_design(design, replicate=0)
    report = estimate_report(data)
    assert report.et_hat == 0.0
    assert report.ldt_hat is None and report.lpt_diff_hat is None
    assert "uptake estimate is zero; ratio estimators undefined" in report.notes
    assert {"ldt_hat,", "lpt_diff_hat,"} <= set(report.to_csv().splitlines())
    battery = estimator_battery(data)
    assert np.isnan(battery["ldt_hat"]) and np.isnan(battery["lpt_diff_hat"])


def test_ratio_estimators_are_defined_from_an_uptake_of_exactly_the_tolerance(monkeypatch):
    """Block 0's uptake contrast is 1 and block 1's 0, so et_hat is exactly
    0.5: with ET_ZERO_TOL at 0.5 the ratio estimators are defined, and one
    ulp above it they are not, in the battery and in the report alike."""
    data = build_data(sizes=[2, 2], s=[1, 0], z=[1, 0, 1, 0], d=[1, 0, 1, 1],
                      y=[2.0, 1.0, 3.0, 0.5], p_blocks=[0.5, 0.5])
    monkeypatch.setattr(estimators, "ET_ZERO_TOL", 0.5)
    assert estimator_battery(data)["et_hat"] == 0.5
    assert np.isfinite(estimator_battery(data)["ldt_hat"])
    assert estimate_report(data).ldt_hat is not None
    monkeypatch.setattr(estimators, "ET_ZERO_TOL", math.nextafter(0.5, 1.0))
    assert np.isnan(estimator_battery(data)["ldt_hat"])
    assert estimate_report(data).ldt_hat is None


def test_all_complier_realizations_ldt_equals_ditt(rng):
    pop = make_population([["co"] * 4] * 4, rng=rng)
    design = Design(pop, mech_a=PHI, mech_b=PSI, k=2, seed=21)
    checked = 0
    for r in range(20):
        data = run_design(design, replicate=r)
        try:
            report = estimate_report(data)
        except AllBlocksUndefined:
            continue
        if report.et_hat == 1.0:
            assert report.ldt_hat == report.ditt_hat_a
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("count", [1, 3])
def test_estimate_report_refuses_a_batch(rng, count):
    pop = make_population([["co"] * 4] * 4, rng=rng)
    design = Design(pop, mech_a=PHI, mech_b=PSI, k=2, seed=21)
    with pytest.raises(ValueError, match=f"^estimate_report takes one realization, not a batch"
                                         f" of {count}$"):
        estimate_report(draw_validated(design, 0, count))


def test_outcome_scaling_linearity(rng):
    pop, a, b = varying_effect_monotone(rng)
    design = Design(pop, mech_a=a, mech_b=b, k=1, seed=10)
    data = run_design(design, replicate=0)
    scaled = ExperimentData(
        sizes=data.sizes, s=data.s, z=data.z, d=data.d, y=data.y * 2.0, p_enc=data.p_enc,
    )
    before, after = estimate_report(data), estimate_report(scaled)
    # doubling is exact in binary floating point, so equality is bitwise
    assert after.ditt_hat_a == 2.0 * before.ditt_hat_a
    assert after.pitt_hat_1 == 2.0 * before.pitt_hat_1
    assert after.et_hat == before.et_hat
    assert after.ldt_hat == 2.0 * before.ldt_hat


def test_mechanism_relabel_negates_pitt(rng):
    pop, a, b = varying_effect_monotone(rng)
    design = Design(pop, mech_a=a, mech_b=b, k=2, seed=14)
    data = run_design(design, replicate=0)
    relabeled = ExperimentData(
        sizes=data.sizes, s=(1 - data.s).astype(np.int8),
        z=data.z, d=data.d, y=data.y, p_enc=data.p_enc,
    )
    before, after = estimator_battery(data), estimator_battery(relabeled)
    for z in (0, 1):
        assert after[f"pitt_hat_{z}"] == -before[f"pitt_hat_{z}"]


def test_estimate_report_contents(rng):
    pop, a, b = varying_effect_monotone(rng, b_range=(4, 6), n_range=(2, 4))
    design = Design(pop, mech_a=a, mech_b=b, k=2, seed=8)
    data = run_design(design, replicate=0)
    report = estimate_report(data)
    assert report.arm_sizes == (2, pop.n_blocks - 2)
    assert report.ldt_hat == pytest.approx(report.ditt_hat_a / report.et_hat)
    text = report.to_json()
    assert "et_blocks_dropped" in text
    # the dropped blocks are exactly those that realized one encouragement value
    blocks = np.split(data.z, data.starts[1:-1])
    assert report.et_blocks_dropped == tuple(
        (i, f"no units with Z={1 - int(z[0])}")
        for i, z in enumerate(blocks) if (z == z[0]).all())


def test_battery_bitwise_matches_individual_estimators(rng):
    """One realization's battery equals its estimate report and its row of a
    batch, bitwise: one kernel with one arithmetic serves all three."""
    for r in range(8):
        pop, a, b = varying_effect_monotone(rng, b_range=(3, 6), n_range=(2, 5))
        design = Design(pop, mech_a=a, mech_b=b, k=1, seed=51)
        data = run_design(design, replicate=r)
        battery = estimator_battery(data)
        batch = estimator_battery(draw_validated(design, r, 1))
        for name, value in battery.items():
            assert np.array_equal(batch[name], [value], equal_nan=True), name
        try:
            report = estimate_report(data)
        except AllBlocksUndefined:
            assert battery["et_hat"] != battery["et_hat"]  # NaN convention
            assert battery["ldt_hat"] != battery["ldt_hat"]
            continue
        for name, value in battery.items():
            if getattr(report, name) is None:
                assert value != value, name  # NaN convention
            else:
                assert getattr(report, name) == value, name


def test_estimate_report_from_ingested_csv(tmp_path, rng):
    pop, a, b = varying_effect_monotone(rng)
    design = Design(pop, mech_a=a, mech_b=b, k=1, seed=30)
    data = run_design(design, replicate=4)
    path = tmp_path / "run.csv"
    data.to_csv(path)
    loaded = ExperimentData.from_csv(path, a, b)
    assert estimate_report(loaded).to_json() == estimate_report(data).to_json()


def test_estimate_report_csv_export(rng):
    pop, a, b = varying_effect_monotone(rng)
    design = Design(pop, mech_a=a, mech_b=b, k=1, seed=12)
    report = estimate_report(run_design(design, replicate=0))
    lines = report.to_csv().splitlines()
    assert lines[0] == "field,value"
    fields = {line.split(",", 1)[0] for line in lines[1:]}
    assert {"ditt_hat_a", "et_hat", "pitt_hat_0", "arm_size_a"} <= fields
    values = dict(line.split(",", 1) for line in lines[1:])
    assert all(float(values[name]) == getattr(report, name) for name in ESTIMATOR_NAMES)


def test_estimate_report_csv_lists_each_dropped_block_last():
    """Block 1 never realized Z=1: its uptake contrast is undefined, and the
    CSV names it after the estimators and the arm sizes."""
    data = build_data(
        sizes=[2, 2, 2], s=[1, 0, 1],
        z=[1, 0, 0, 0, 1, 0], d=[1, 0, 0, 0, 1, 0], y=[3.0, 1.0, 2.0, 0.5, 4.0, 1.5],
        p_blocks=[0.5, 0.5, 0.5],
    )
    report = estimate_report(data)
    assert report.et_blocks_dropped == ((1, "no units with Z=1"),)
    rows = [line.split(",") for line in report.to_csv().splitlines()]
    assert [name for name, _ in rows[1:8]] == list(ESTIMATOR_NAMES)
    assert rows[8:] == [["arm_size_a", "2"], ["arm_size_b", "1"],
                        ["et_dropped_block_1", "no units with Z=1"]]


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
        sizes=sizes, s=s.astype(np.int8),
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
        design = Design(pop, mech_a=a, mech_b=b, k=1, seed=60 + r)
        _assert_battery_matches_oracle(run_design(design, replicate=r))


# Values at and beyond the edges of what the constructor accepts.
_EDGE_Y = st.sampled_from([-0.0, 5e-324, 1e-300, 4e307, -8e307, 1.7e308, np.inf, np.nan])
_EDGE_P = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1 - 2**-53, 1.0, 1.5, np.nan])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_accepted_data_estimates_without_runtime_warnings(data):
    """Whatever the constructor accepts, one realization or a batch, the
    estimators reduce with no RuntimeWarning: every sum they form is finite."""
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    n, rows = sum(sizes), data.draw(st.sampled_from([None, 1, 3]))

    def column(elements, width, edge=None):
        out = []
        for _ in range(rows or 1):
            row = data.draw(st.lists(elements, min_size=width, max_size=width))
            if edge is not None and data.draw(st.booleans()):
                row[data.draw(st.integers(0, width - 1))] = data.draw(edge)
            out.append(row)
        return out if rows else out[0]

    bits = st.integers(0, 1)
    try:
        built = ExperimentData(sizes=sizes, s=column(bits, len(sizes)), z=column(bits, n),
                               d=column(bits, n), y=column(st.floats(-4, 4), n, _EDGE_Y),
                               p_enc=column(st.floats(0.05, 0.95), n, _EDGE_P))
    except InvalidData:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        battery = estimator_battery(built)
        if rows is None:
            try:
                report = estimate_report(built)
            except AllBlocksUndefined:
                return
            assert report.arm_sizes == (built.k, len(sizes) - built.k)
    for name in ("ditt_hat_a", "ditt_hat_b", "pitt_hat_1", "pitt_hat_0"):
        assert np.isfinite(battery[name]).all(), name
