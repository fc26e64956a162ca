import math
import re

import numpy as np
import pytest

from peerenc.design import Design, ExperimentData, batch_size, draw_validated, run_design
from peerenc.errors import ArityMismatch, InvalidData, InvalidDesign
from peerenc.estimands import member_averages
from peerenc.mechanisms import Mechanism
from peerenc.popfile import population_from_dict
from peerenc.population import structural_value
from conftest import make_population, person, population, structural, table
from fuzz import varying_effect_monotone
from oracles import assignment_probs, convert_to_tables, oracle_outcome, oracle_ybar_itt, \
    oracle_ybar_local, pack_rows, population_to_dict

PHI = Mechanism("phi", 0.8)
PSI = Mechanism("psi", 0.2)


def _design(pop, k=None, seed=7, a=PHI, b=PSI):
    return Design(pop, mech_a=a, mech_b=b, k=k if k is not None else pop.n_blocks // 2,
                  seed=seed)


def _block(data, i) -> slice:
    return slice(int(data.starts[i]), int(data.starts[i + 1]))


def test_exactly_k_blocks_in_arm_a():
    pop = make_population([["co", "nt"], ["co", "at"]], direct=1.0)
    for r in range(50):
        data = run_design(_design(pop, k=1), replicate=r)
        assert int(data.s.sum()) == 1


def test_invalid_design_k_range():
    pop = make_population([["co"], ["co"]])
    with pytest.raises(InvalidDesign):
        _design(pop, k=0)
    with pytest.raises(InvalidDesign):
        _design(pop, k=2)


def test_invalid_design_identical_mechanisms():
    pop = make_population([["co"], ["co"]])
    same = Mechanism("phi2", 0.8)
    with pytest.raises(InvalidDesign):
        _design(pop, k=1, a=PHI, b=same)
    broadcast_same = Mechanism("vec", (0.8,))
    with pytest.raises(InvalidDesign):
        _design(pop, k=1, a=PHI, b=broadcast_same)


@pytest.mark.parametrize("mech_b, identical", [
    (Mechanism("b", (0.5, 0.5, 0.5)), True),
    (Mechanism("c", (0.5, 0.4, 0.5)), False),
    (Mechanism("d", 0.2), False),
], ids=["broadcast-equal", "one-unit-differs", "scalars-differ"])
def test_validate_design_needs_a_contrast(mech_b, identical):
    """A scalar mechanism and a vector one are identical when they give every
    individual the same probability."""
    pop = make_population([["co", "nt", "at"], ["co", "co", "nt"]])
    if identical:
        with pytest.raises(InvalidDesign, match="identical probabilities"):
            _design(pop, k=1, a=Mechanism("a", 0.5), b=mech_b)
    else:
        assert _design(pop, k=1, a=Mechanism("a", 0.5), b=mech_b).probs.shape == (2, 6)


def test_a_design_cannot_be_forged_or_mutated():
    """A Design exists only validated: its probabilities are read-only and
    ``replace`` runs the constructor's checks again."""
    pop = make_population([["co", "nt"], ["co", "at"], ["co", "co"]])
    design = _design(pop, k=1)
    before = run_design(design, replicate=3)
    with pytest.raises(ValueError, match="read-only"):
        design.probs[0] = 1.0
    with pytest.raises(AttributeError):
        design.probs = np.ones((2, 6))
    for k in (0, 3):
        with pytest.raises(InvalidDesign, match=f"k={k} must leave both arms populated"):
            design.replace(k=k)
    with pytest.raises(InvalidDesign, match="identical probabilities"):
        design.replace(mech_b=Mechanism("phi2", 0.8))
    after = run_design(design, replicate=3)
    assert np.array_equal(before.p_enc, after.p_enc) and np.array_equal(before.z, after.z)
    moved = design.replace(k=2)
    assert moved.k == 2 and np.array_equal(moved.probs, design.probs)
    assert not moved.probs.flags.writeable


@pytest.mark.parametrize("field, value, message", [
    ("k", 2.5, "k=2.5 is not an integer"),
    ("k", True, "k=True is not an integer"),
    ("k", "1", "k='1' is not an integer"),
    ("seed", 1.5, "seed=1.5 is not an integer"),
    ("seed", False, "seed=False is not an integer"),
    ("seed", -1, "seed=-1 must be non-negative"),
], ids=["k-float", "k-bool", "k-str", "seed-float", "seed-bool", "seed-negative"])
def test_a_design_that_could_not_be_drawn_is_refused(field, value, message):
    """k and seed are integers (not bools) and seed >= 0, or the design is
    refused when it is built, also through ``replace``; numpy integers are
    integers and are held as Python ints."""
    pop = make_population([["co", "nt"], ["co", "at"], ["co", "co"]])
    with pytest.raises(InvalidDesign, match=f"^{re.escape(message)}$"):
        _design(pop, **{"k": 1, field: value})
    design = _design(pop, k=1)
    with pytest.raises(InvalidDesign, match=f"^{re.escape(message)}$"):
        design.replace(**{field: value})
    numpy = design.replace(k=np.int64(2), seed=np.uint32(7))
    assert (numpy.k, numpy.seed) == (2, 7) and type(numpy.k) is type(numpy.seed) is int
    assert np.array_equal(run_design(numpy, 3).z, run_design(design.replace(k=2), 3).z)


def test_vector_mechanism_arity_checked():
    pop = make_population([["co", "nt", "at"], ["co", "co", "nt"]])
    bad = Mechanism("vec", (0.5, 0.6))
    with pytest.raises(ArityMismatch):
        _design(pop, k=1, a=bad)


@pytest.mark.parametrize("intercept, refused", [(6e304, True), (3e304, False)])
def test_the_weighted_bound_covers_every_arm_assignment(intercept, refused):
    """Block 0 unit 0 and block 1 unit 1 carry the outcome; each mechanism
    puts 0.001 on one of them. Under either mechanism alone 2 * sum is about
    1.2e308 at 6e304, but the draw that gives block 0 mechanism A and block
    1 mechanism B weights both by 1000 (2.4e308), so the design is refused;
    at 3e304 every replicate's draw is valid data."""
    coef = np.zeros((6, 4))
    coef[0, [0, 3]] = intercept
    pop = make_population([["nt", "nt"]] * 2, intercept=0.0).replace(coef=coef)
    a, b = Mechanism("a", (0.001, 0.5)), Mechanism("b", (0.5, 0.001))
    if refused:
        with pytest.raises(InvalidDesign, match="^mechanisms 'a' and 'b': inverse-probability"):
            _design(pop, k=1, a=a, b=b)
        return
    design = _design(pop, k=1, a=a, b=b)
    batch = draw_validated(design, 0, 16)
    assert {tuple(row) for row in batch.s.tolist()} == {(1, 0), (0, 1)}
    assert run_design(design, 3).k == 1


@pytest.mark.parametrize("first, count", [(0, 0), (-1, 2)])
def test_draw_validated_refuses_an_empty_or_negative_range(first, count):
    design = _design(make_population([["co"], ["co"]]), k=1)
    with pytest.raises(InvalidDesign, match=f"^replicates {first}..{first + count - 1} need"):
        draw_validated(design, first, count)


def test_realized_treatments_follow_potential_treatments(rng):
    pop, a, b = varying_effect_monotone(rng)
    data = run_design(_design(pop, a=a, b=b), replicate=3)
    for u in range(pop.n_individuals):
        z = int(data.z[u])
        assert int(data.d[u]) == (pop.d1[u] if z else pop.d0[u])


def test_realized_outcomes_evaluate_potential_outcomes(rng):
    pop, a, b = varying_effect_monotone(rng)
    pop = convert_to_tables(pop)
    data = run_design(_design(pop, a=a, b=b), replicate=1)
    for i in range(pop.n_blocks):
        sl = _block(data, i)
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
        avg = member_averages(pop, mech)
        for i in range(2):
            for j in range(3):
                u = pop.starts[i] + j
                for v in (0, 1):
                    assert avg.itt[v][u] == pytest.approx(
                        oracle_ybar_itt(pop, i, j, v, mech), rel=1e-12, abs=1e-12)
                    assert avg.local[v][u] == pytest.approx(
                        oracle_ybar_local(pop, i, j, v, mech), rel=1e-12, abs=1e-12)
    for r in range(8):
        data = run_design(_design(pop, k=1, a=a, b=b), replicate=r)
        for i in range(2):
            sl = _block(data, i)
            for j in range(3):
                assert data.y[sl][j] == pytest.approx(
                    oracle_outcome(pop, i, j, data.d[sl], data.z[sl]), rel=1e-12, abs=1e-12)


def test_realized_structural_outcomes_evaluate_value_exactly(rng):
    kinds = [[("at", "co", "nt", "de")[int(c)] for c in rng.integers(4, size=n)]
             for n in (1, 3, 5, 6, 9, 12, 16)]
    pop = make_population(kinds, rng=rng)
    for r in range(5):
        data = run_design(_design(pop), replicate=r)
        for i in range(pop.n_blocks):
            sl = _block(data, i)
            k_total = int(data.d[sl].sum())
            for j, u in enumerate(range(pop.starts[i], pop.starts[i + 1])):
                d_j = int(data.d[sl][j])
                coef = pop.coef[:, u].tolist()
                assert data.y[sl][j] == structural_value(coef, d_j, k_total - d_j)


def test_all_never_takers_untreated_whatever_z():
    pop = make_population([["nt"] * 3, ["nt"] * 3], direct=5.0, peer=2.0, intercept=1.0)
    for r in range(10):
        data = run_design(_design(pop, k=1), replicate=r)
        assert not data.d.any()
        assert np.allclose(data.y, 1.0)


def test_reproducible_bit_identical(rng):
    pop, a, b = varying_effect_monotone(rng)
    design = _design(pop, a=a, b=b, seed=123)
    d1 = run_design(design, replicate=5)
    d2 = run_design(design, replicate=5)
    for name in ("sizes", "s", "z", "d", "y", "p_enc"):
        assert np.array_equal(getattr(d1, name), getattr(d2, name))
    d3 = run_design(design, replicate=6)
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
    data = run_design(_design(pop, k=1, seed=2**70 + 3), replicate=replicate)
    assert data.s.tolist() == s
    assert data.z.tolist() == z


def test_arm_assignment_exchangeable():
    pop = make_population([["co", "nt"]] * 5, direct=1.0)
    design = _design(pop, k=2, seed=11)
    runs = 4000
    hits = np.zeros(pop.n_blocks)
    for r in range(runs):
        hits += run_design(design, replicate=r).s
    target = design.k / pop.n_blocks
    se = math.sqrt(target * (1 - target) / runs)
    assert np.all(np.abs(hits / runs - target) <= 3 * se)


def test_encouragement_rate_matches_mechanism():
    pop = make_population([["co"] * 30] * 10, direct=1.0)
    design = _design(pop, k=5, seed=2)
    z_a = []
    z_b = []
    for r in range(30):
        data = run_design(design, replicate=r)
        for i in range(pop.n_blocks):
            sl = _block(data, i)
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
    designs = _design(pop, a=a, b=b, seed=77), _design(permuted, a=a, b=b, seed=77)
    for r in range(5):
        original, shuffled = (run_design(design, replicate=r) for design in designs)
        assert np.array_equal(original.z, shuffled.z)
        assert np.array_equal(original.s, shuffled.s)


def _vector_counts(design, replications, block=0) -> np.ndarray:
    """How often each encouragement vector of one block was drawn, by the arm
    the block received: row 1 counts arm A, row 0 arm B; column r is the
    bit-packed vector r, in the order of ``assignment_probs``."""
    pop = design.pop
    members = slice(int(pop.starts[block]), int(pop.starts[block + 1]))
    counts = np.zeros((2, 2 ** pop.sizes[block]), dtype=np.int64)
    step = batch_size(pop)
    for first in range(0, replications, step):
        data = draw_validated(design, first, min(step, replications - first))
        np.add.at(counts, (data.s[:, block], pack_rows(data.z[:, members])), 1)
    return counts


def test_design_prob_check_fair_coin():
    pop = make_population([["co", "nt"], ["co", "at"]], direct=1.0)
    design = Design(pop, mech_a=Mechanism("a", 0.5), mech_b=Mechanism("b", 0.35), k=1, seed=5)
    counts = _vector_counts(design, replications=20_000)
    assert counts.sum() == 20_000
    runs = int(counts[1].sum())
    expected = assignment_probs(design.mech_a, 2)
    assert expected.tolist() == [0.25, 0.25, 0.25, 0.25]
    for observed, p in zip(counts[1], expected):
        se = math.sqrt(p * (1 - p) / runs)
        assert abs(observed / runs - p) <= 3 * se


def test_design_prob_check_single_individual():
    pop = make_population([["co"], ["co"]], direct=1.0)
    design = Design(pop, mech_a=Mechanism("a", 0.3), mech_b=Mechanism("b", 0.6), k=1, seed=9)
    counts = _vector_counts(design, replications=10_000)
    runs = int(counts[1].sum())
    assert assignment_probs(design.mech_a, 1)[1] == 0.3
    se = math.sqrt(0.3 * 0.7 / runs)
    assert abs(counts[1, 1] / runs - 0.3) <= 3 * se


def test_csv_round_trip(tmp_path, rng):
    pop, a, b = varying_effect_monotone(rng)
    data = run_design(_design(pop, a=a, b=b), replicate=2)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    loaded = ExperimentData.from_csv(path, a, b)
    for name in ("sizes", "s", "z", "d", "p_enc"):
        assert np.array_equal(getattr(data, name), getattr(loaded, name)), name
    assert np.array_equal(data.y, loaded.y)  # repr round-trips floats exactly


def test_csv_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        ExperimentData.from_csv(path, PHI, PSI)


_CSV_HEADER = "block_id,S,unit_id,Z,D,Y\n"
_CSV_ROWS = ["0,1,0,1,1,0.5", "0,1,1,0,0,0.25", "1,0,0,1,1,1.5", "1,0,1,0,0,2.0"]
# blocks 1 and 2, one row each: the message names the lowest block id
_LOWEST_BLOCK_1 = _CSV_HEADER + "2,1,0,1,1,0.5\n1,0,0,1,1,1.5\n"


@pytest.mark.parametrize("text", [
    "",
    _CSV_HEADER,
    _CSV_HEADER + "\n".join(_CSV_ROWS + ["-1,0,0,1,1,0.5"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:2] + ["2,0,0,1,1,1.5", "2,0,1,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[2:]),
    _LOWEST_BLOCK_1,
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,1,7,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,1,0,0,nan"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,1,1,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS + ["1,0,1,0,0,2.0"]),
    _CSV_HEADER + "\n".join(["0,1,0,1,1,0.5", "0,1,7,0,0,0.25"] + _CSV_ROWS[2:]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:2] + ["1,0,-1,1,1,1.5", "1,0,0,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,x,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,1,0,0,2.0,EXTRA"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,1_0,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,\u0661,0,0,2.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:3] + ["1,0,1,0,0,1_0.0"]),
    _CSV_HEADER + "\n".join(_CSV_ROWS[:2] + ["1,0,0,1,1,1e308", "1,0,1,0,0,2.0"]),
    (_CSV_HEADER + "\n".join(_CSV_ROWS)).encode() + b"\n1,0,2,0,0,\xff\n",
    lambda path: path,
    lambda path: path.mkdir() or path,
    lambda path: path.write_text(_CSV_HEADER) and path / "under-a-file.csv",
], ids=["empty", "no-rows", "negative-block", "block-gap", "no-block-0", "lowest-block-1",
        "z-not-binary",
        "nan-outcome", "s-varies-in-block", "duplicate-unit", "unit-id-gap",
        "negative-unit-id", "not-a-number", "extra-field",
        "underscore-unit-id", "arabic-indic-unit-id", "underscore-outcome",
        "ipw-overflow", "not-utf8", "missing", "directory", "parent-is-a-file"])
def test_csv_rejects_invalid_data(tmp_path, text):
    """Every defect, including a path that cannot be read (``text`` is then
    a function making that path), raises InvalidData naming the file."""
    good = tmp_path / "good.csv"
    good.write_text(_CSV_HEADER + "\n".join(_CSV_ROWS) + "\n")
    assert ExperimentData.from_csv(good, PHI, PSI).n_blocks == 2
    path = tmp_path / "bad.csv"
    if callable(text):
        path = text(path)
    else:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    found = ": block ids must start at 0, found 1$" if text is _LOWEST_BLOCK_1 else ""
    with pytest.raises(InvalidData, match="^" + re.escape(str(path)) + found):
        ExperimentData.from_csv(path, PHI, PSI)


def test_csv_rejects_a_block_its_vector_mechanism_cannot_cover(tmp_path):
    """A mechanism with one probability per individual covers only blocks
    of its arity: a 3-row block 0 under a 2-vector is InvalidData naming the
    file and the block."""
    path = tmp_path / "arity.csv"
    path.write_text(_CSV_HEADER + "\n".join(["0,1,2,0,0,1.0", *_CSV_ROWS]) + "\n")
    a, b = Mechanism("a", (0.9, 0.1)), Mechanism("b", (0.3, 0.6))
    assert ExperimentData.from_csv(path, PHI, PSI).sizes.tolist() == [3, 2]
    with pytest.raises(InvalidData, match=f"^{re.escape(str(path))}: block 0: mechanism 'a'"
                                          " has arity 2, block has 3$"):
        ExperimentData.from_csv(path, a, b)
    path.write_text(_CSV_HEADER + "\n".join(_CSV_ROWS[:2] + ["1,0,2,0,0,1.0", *_CSV_ROWS[2:]]))
    with pytest.raises(InvalidData, match="block 1: mechanism 'b' has arity 2, block has 3$"):
        ExperimentData.from_csv(path, a, b)


_DATA = dict(sizes=[2, 2], s=[1, 0], z=[1, 0, 1, 0], d=[1, 0, 1, 0], y=[0.5, 0.25, 1.5, 2.0],
             p_enc=[0.8, 0.8, 0.2, 0.2])


def _batch(**rows) -> dict:
    """_DATA as a batch of two replicates, each field's rows given or doubled."""
    return {name: rows.get(name, [value, value]) if name != "sizes" else value
            for name, value in _DATA.items()}


@pytest.mark.parametrize("change, message", [
    (dict(p_enc=[0.8, 0.8, 1.5, 0.2]), "block 1 unit 0: p_enc=1.5 is not in (0, 1)"),
    (dict(p_enc=[0.8, 0.8, 0.2, 1.0]), "block 1 unit 1: p_enc=1.0 is not in (0, 1)"),
    (dict(z=[1, 0, 2, 0]), "block 1 unit 0: Z=2 is not 0 or 1"),
    (dict(d=[1, -1, 1, 0]), "block 0 unit 1: D=-1 is not 0 or 1"),
    (dict(s=[2, 0]), "block 0: S=2 is not 0 or 1"),
    (dict(y=[0.5, 0.25, float("nan"), 2.0]), "block 1 unit 0: Y=nan is not finite"),
    (dict(y=[0.5, 0.25, 1e308, 2.0]), "inverse-probability weighted outcomes overflow"
                                      " (2 * sum of |Y| / min(p, 1 - p) is not finite)"),
    (dict(sizes=[3, 2]), "Z needs shape (5,), got (4,)"),
    (dict(s=[1, 0, 0]), "S needs shape (2,), got (3,)"),
    (dict(sizes=[4], s=[1]), "data needs integer sizes of at least 2 blocks, got int64 sizes"
                             " of shape (1,)"),
    (dict(sizes=[2.5, 1.5]), "data needs integer sizes of at least 2 blocks, got float64 sizes"
                             " of shape (2,)"),
    (dict(sizes=[2, 0, 2], s=[1, 0, 0]), "block 1 is empty"),
    (dict(s=[0, 0]), "no block in arm A"),
    (_batch(s=[[1, 0], [0, 1]], y=[[0.5, 0.25, 1.5, 2.0], [0.5, 0.25, 1.5, float("inf")]]),
     "replicate 1: block 1 unit 1: Y=inf is not finite"),
    (_batch(s=[[1, 0], [1, 1]]), "replicate 1: no block in arm B"),
    (dict(_batch(s=[[1, 0, 0], [1, 1, 0]]), sizes=[1, 1, 2]),
     "replicate 1: 2 blocks in arm A, replicate 0 has 1"),
    (_batch(y=[[0.5] * 4, [0.5, 0.25, 1e308, 2.0]]), "replicate 1: inverse-probability"),
], ids=["p-above-1", "p-of-1", "z-2", "d-negative", "s-2", "y-nan", "y-overflows-ipw",
        "sizes-exceed-units", "s-too-long", "one-block", "fractional-sizes", "empty-block",
        "no-arm-a", "batch-y-inf", "batch-no-arm-b", "batch-unequal-k", "batch-ipw-overflow"])
def test_experiment_data_refuses_what_no_run_gives(change, message):
    """The constructor refuses each fault with InvalidData naming its first
    place; built directly, such data used to reach the estimators."""
    assert ExperimentData(**_DATA).k == 1
    with pytest.raises(InvalidData, match="^" + re.escape(message)):
        ExperimentData(**{**_DATA, **change})


def test_a_batch_is_bounded_replicate_by_replicate():
    """Each replicate's weighted outcomes stay in the float range, their
    total over the batch does not: the batch is valid data."""
    row, p = [4e307, 0.0, 0.0, 0.0], [0.5] * 4
    per_row, total = (2 * sum(v / 0.5 for v in values) for values in (row, row * 2))
    assert per_row < np.inf and total == np.inf
    data = ExperimentData(**_batch(y=[row, row], p_enc=[p, p]))
    assert data.k == 1 and data.starts.tolist() == [0, 2, 4]
    assert not any(arr.flags.writeable for arr in (data.s, data.z, data.y, data.starts))


def test_to_csv_refuses_a_batch(tmp_path):
    pop = make_population([["co"] * 10] * 12, intercept=1.0)
    batch = draw_validated(_design(pop), 0, 3)
    with pytest.raises(ValueError, match="^to_csv writes one realization, not a batch of 3$"):
        batch.to_csv(tmp_path / "batch.csv")
    assert not (tmp_path / "batch.csv").exists()
