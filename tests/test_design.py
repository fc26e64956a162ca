import math

import numpy as np
import pytest

from peerenc.design import DesignConfig, ExperimentData, design_prob_check, run_design
from peerenc.errors import ArityMismatch, InvalidData, InvalidDesign
from peerenc.estimands import ybar_indiv_itt, ybar_indiv_local
from peerenc.mechanisms import Mechanism
from peerenc.population import convert_to_tables, population_from_dict, population_to_dict, \
    structural_value
from conftest import make_population, person, population, structural, table
from fuzz import varying_effect_monotone
from oracles import oracle_outcome, oracle_ybar_itt, oracle_ybar_local

PHI = Mechanism("phi", 0.8)
PSI = Mechanism("psi", 0.2)


def _cfg(pop, k=None, seed=7, a=PHI, b=PSI):
    return DesignConfig(mech_a=a, mech_b=b, k=k if k is not None else pop.n_blocks // 2,
                        seed=seed)


def test_exactly_k_blocks_in_arm_a():
    pop = make_population([["co", "nt"], ["co", "at"]], direct=1.0)
    for r in range(50):
        data = run_design(pop, _cfg(pop, k=1), replicate=r)
        assert int(data.s.sum()) == 1


def test_invalid_design_k_range():
    pop = make_population([["co"], ["co"]])
    with pytest.raises(InvalidDesign):
        run_design(pop, _cfg(pop, k=0))
    with pytest.raises(InvalidDesign):
        run_design(pop, _cfg(pop, k=2))


def test_invalid_design_identical_mechanisms():
    pop = make_population([["co"], ["co"]])
    same = Mechanism("phi2", 0.8)
    with pytest.raises(InvalidDesign):
        run_design(pop, _cfg(pop, k=1, a=PHI, b=same))
    broadcast_same = Mechanism("vec", (0.8,))
    with pytest.raises(InvalidDesign):
        run_design(pop, _cfg(pop, k=1, a=PHI, b=broadcast_same))


def test_vector_mechanism_arity_checked():
    pop = make_population([["co", "nt", "at"], ["co", "co", "nt"]])
    bad = Mechanism("vec", (0.5, 0.6))
    with pytest.raises(ArityMismatch):
        run_design(pop, _cfg(pop, k=1, a=bad))


def test_realized_treatments_follow_potential_treatments(rng):
    pop, a, b = varying_effect_monotone(rng)
    data = run_design(pop, _cfg(pop, a=a, b=b), replicate=3)
    for u in range(pop.n_individuals):
        z = int(data.z[u])
        assert int(data.d[u]) == (pop.d1[u] if z else pop.d0[u])


def test_realized_outcomes_evaluate_potential_outcomes(rng):
    pop, a, b = varying_effect_monotone(rng)
    pop = convert_to_tables(pop)
    data = run_design(pop, _cfg(pop, a=a, b=b), replicate=1)
    for i in range(pop.n_blocks):
        sl = data.block_slice(i)
        d_vec = data.d[sl]
        z_vec = data.z[sl]
        for j in range(int(data.sizes[i])):
            assert data.y[sl][j] == pytest.approx(
                oracle_outcome(pop, i, j, d_vec, z_vec), abs=0
            )


def test_mixed_block_matches_oracles(rng):
    """One block holding a structural member, a plain table and an
    encouragement-keyed table: exact averages and realized outcomes."""
    mixed = [
        person("co", structural(
            intercept=0.5, direct=2.0, peer=0.7, interaction=-0.4, curvature=0.1, noise=0.3)),
        person("co", table(rng.normal(size=8))),
        person("de", table(rng.normal(size=(8, 8)))),
    ]
    plain = [person(kind, structural(direct=1.0, peer=0.5)) for kind in ("co", "nt", "at")]
    pop = population([mixed, plain])
    assert not (pop.monotone or pop.one_sided or pop.exclusion_ok)
    a, b = Mechanism("a", (0.2, 0.55, 0.8)), Mechanism("b", (0.7, 0.35, 0.15))
    for mech in (a, b):
        for i in range(2):
            for j in range(3):
                for v in (0, 1):
                    assert ybar_indiv_itt(pop, i, j, v, mech) == pytest.approx(
                        oracle_ybar_itt(pop, i, j, v, mech), rel=1e-12, abs=1e-12)
                    assert ybar_indiv_local(pop, i, j, v, mech, allow_exclusion_violation=True) \
                        == pytest.approx(oracle_ybar_local(pop, i, j, v, mech),
                                         rel=1e-12, abs=1e-12)
    for r in range(8):
        data = run_design(pop, _cfg(pop, k=1, a=a, b=b), replicate=r)
        for i in range(2):
            sl = data.block_slice(i)
            for j in range(3):
                assert data.y[sl][j] == pytest.approx(
                    oracle_outcome(pop, i, j, data.d[sl], data.z[sl]), rel=1e-12, abs=1e-12)


def test_realized_structural_outcomes_evaluate_value_exactly(rng):
    kinds = [[("at", "co", "nt", "de")[int(c)] for c in rng.integers(4, size=n)]
             for n in (1, 3, 5, 6, 9, 12, 16)]
    pop = make_population(kinds, rng=rng)
    for r in range(5):
        data = run_design(pop, _cfg(pop), replicate=r)
        for i in range(pop.n_blocks):
            sl = data.block_slice(i)
            k_total = int(data.d[sl].sum())
            for j, u in enumerate(range(pop.starts[i], pop.starts[i + 1])):
                d_j = int(data.d[sl][j])
                coef = pop.coef[:, u].tolist()
                assert data.y[sl][j] == structural_value(coef, d_j, k_total - d_j)


def test_all_never_takers_untreated_whatever_z():
    pop = make_population([["nt"] * 3, ["nt"] * 3], direct=5.0, peer=2.0, intercept=1.0)
    for r in range(10):
        data = run_design(pop, _cfg(pop, k=1), replicate=r)
        assert not data.d.any()
        assert np.allclose(data.y, 1.0)


def test_reproducible_bit_identical(rng):
    pop, a, b = varying_effect_monotone(rng)
    cfg = _cfg(pop, a=a, b=b, seed=123)
    d1 = run_design(pop, cfg, replicate=5)
    d2 = run_design(pop, cfg, replicate=5)
    for name in ("sizes", "s", "block_id", "z", "d", "y", "p_enc"):
        assert np.array_equal(getattr(d1, name), getattr(d2, name))
    d3 = run_design(pop, cfg, replicate=6)
    assert not np.array_equal(d1.z, d3.z)


@pytest.mark.parametrize("replicate, s, z", [
    (0, [0, 0, 1], [0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1]),
    (2**40, [0, 1, 0], [1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1]),
], ids=["0", "2^40"])
def test_stream_layout_v2_golden_vectors(replicate, s, z):
    """Literal draws of stream layout v2, recorded with numpy 2.4. numpy does
    not promise that Generator.permutation or random keep their streams across
    releases; if this fails while the reference-loop tests pass, numpy moved
    them and every simulate/verify number moved with it."""
    pop = make_population([["co"] * 4, ["co"] * 5, ["co"] * 6])
    data = run_design(pop, _cfg(pop, k=1, seed=2**70 + 3), replicate=replicate)
    assert data.s.tolist() == s
    assert data.z.tolist() == z


def test_arm_assignment_exchangeable():
    pop = make_population([["co", "nt"]] * 5, direct=1.0)
    cfg = _cfg(pop, k=2, seed=11)
    runs = 4000
    hits = np.zeros(pop.n_blocks)
    for r in range(runs):
        hits += run_design(pop, cfg, replicate=r).s
    target = cfg.k / pop.n_blocks
    se = math.sqrt(target * (1 - target) / runs)
    assert np.all(np.abs(hits / runs - target) <= 3 * se)


def test_encouragement_rate_matches_mechanism():
    pop = make_population([["co"] * 30] * 10, direct=1.0)
    cfg = _cfg(pop, k=5, seed=2)
    z_a = []
    z_b = []
    for r in range(30):
        data = run_design(pop, cfg, replicate=r)
        for i in range(pop.n_blocks):
            sl = data.block_slice(i)
            (z_a if data.s[i] == 1 else z_b).append(np.asarray(data.z[sl]))
    for bits, p in ((np.concatenate(z_a), 0.8), (np.concatenate(z_b), 0.2)):
        se = math.sqrt(p * (1 - p) / bits.size)
        assert abs(bits.mean() - p) <= 3 * se


def test_encouragements_ignore_potential_outcomes(rng):
    """Permuting who owns which outcome function cannot move any Z draw."""
    pop, a, b = varying_effect_monotone(rng, b_range=(3, 3), n_range=(3, 3))
    data = population_to_dict(pop)
    for block in data["blocks"]:
        ys = [block[(j + 1) % len(block)]["outcome"] for j in range(len(block))]
        for ind, y in zip(block, ys):
            ind["outcome"] = y
    permuted = population_from_dict(data)
    cfg = _cfg(pop, a=a, b=b, seed=77)
    for r in range(5):
        original = run_design(pop, cfg, replicate=r)
        shuffled = run_design(permuted, cfg, replicate=r)
        assert np.array_equal(original.z, shuffled.z)
        assert np.array_equal(original.s, shuffled.s)


def test_design_prob_check_fair_coin():
    pop = make_population([["co", "nt"], ["co", "at"]], direct=1.0)
    cfg = DesignConfig(mech_a=Mechanism("a", 0.5), mech_b=Mechanism("b", 0.35),
                       k=1, seed=5)
    rep_a, rep_b = design_prob_check(cfg, pop, replications=20_000, block=0)
    assert rep_a.runs + rep_b.runs == 20_000
    for rep, probs in ((rep_a, (0.25, 0.25, 0.25, 0.25)),):
        for vec, expected in zip(sorted(rep.expected), probs):
            freq = rep.counts[vec] / rep.runs
            se = math.sqrt(expected * (1 - expected) / rep.runs)
            assert abs(freq - expected) <= 3 * se
    assert sum(rep_a.frequencies.values()) == pytest.approx(1.0, abs=1e-12)
    assert rep_a.dof == 3
    assert math.isfinite(rep_a.chi_square)


def test_design_prob_check_single_individual():
    pop = make_population([["co"], ["co"]], direct=1.0)
    cfg = DesignConfig(mech_a=Mechanism("a", 0.3), mech_b=Mechanism("b", 0.6), k=1, seed=9)
    rep_a, _ = design_prob_check(cfg, pop, replications=10_000, block=0)
    freq1 = rep_a.counts[(1,)] / rep_a.runs
    se = math.sqrt(0.3 * 0.7 / rep_a.runs)
    assert abs(freq1 - 0.3) <= 3 * se


def test_design_prob_check_block_size_guard():
    pop = make_population([["co"] * 7, ["co"] * 7])
    cfg = _cfg(pop, k=1)
    with pytest.raises(InvalidDesign):
        design_prob_check(cfg, pop, replications=10, block=0)


def test_csv_round_trip(tmp_path, rng):
    pop, a, b = varying_effect_monotone(rng)
    data = run_design(pop, _cfg(pop, a=a, b=b), replicate=2)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    loaded = ExperimentData.from_csv(path, a, b)
    for name in ("sizes", "s", "block_id", "z", "d", "p_enc"):
        assert np.array_equal(getattr(data, name), getattr(loaded, name)), name
    assert np.array_equal(data.y, loaded.y)  # repr round-trips floats exactly


def test_csv_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        ExperimentData.from_csv(path, PHI, PSI)


_CSV_HEADER = "block_id,S,unit_id,Z,D,Y\n"
_CSV_ROWS = ["0,1,0,1,1,0.5", "0,1,1,0,0,0.25", "1,0,0,1,1,1.5", "1,0,1,0,0,2.0"]


@pytest.mark.parametrize("text", [
    "",
    _CSV_HEADER,
    _CSV_HEADER + "\n".join(_CSV_ROWS + ["-1,0,0,1,1,0.5"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:2] + ["2,0,0,1,1,1.5", "2,0,1,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[2:]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,1,7,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,1,0,0,nan"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,1,1,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS + ["1,0,1,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,x,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,1,0,0,2.0,EXTRA"]),
    (_CSV_HEADER + "\n".join(_CSV_ROWS)).encode() + b"\n1,0,2,0,0,\xff\n",
], ids=["empty", "no-rows", "negative-block", "block-gap", "no-block-0", "z-not-binary",
        "nan-outcome", "s-varies-in-block", "duplicate-unit", "not-a-number", "extra-field",
        "not-utf8"])
def test_csv_rejects_invalid_data(tmp_path, text):
    good = tmp_path / "good.csv"
    good.write_text(_CSV_HEADER + "\n".join(_CSV_ROWS) + "\n")
    assert ExperimentData.from_csv(good, PHI, PSI).n_blocks == 2
    path = tmp_path / "bad.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(InvalidData):
        ExperimentData.from_csv(path, PHI, PSI)
