import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerenc.design import DesignConfig, batch_size, draw_replicates
from peerenc.errors import ArityMismatch, EnumerationTooLarge, InvalidMechanism
from peerenc.mechanisms import (
    Mechanism,
    assignment_probs,
    enumerate_assignments,
    mech_prob,
    mechanisms_identical,
)
from conftest import make_population


def protocol_draws(mech: Mechanism, n: int, draws: int, seed: int) -> np.ndarray:
    """``draws`` encouragement vectors of size-n blocks assigned to mech, read
    from the protocol's batched draws: 40 blocks, 20 of them in mech's arm."""
    pop = make_population([["co"] * n] * 40)
    other = Mechanism("other", 0.5 if mech.marginals(n)[0] != 0.5 else 0.3)
    cfg = DesignConfig(mech_a=mech, mech_b=other, k=20, seed=seed)
    reps, step, out = -(-draws // 20), batch_size(pop), []
    for first in range(0, reps, step):
        data = draw_replicates(pop, cfg, first, min(step, reps - first))
        out.append(data.z.reshape(-1, 40, n)[data.s == 1])
    return np.concatenate(out)[:draws]


def test_mech_prob_fair_coin_block_of_three():
    m = Mechanism("phi", 0.5)
    for z in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
        assert mech_prob(m, z) == pytest.approx(0.125, abs=0)


def test_mech_prob_heterogeneous_pair():
    m = Mechanism("phi", (0.2, 0.2))
    assert mech_prob(m, (1, 0)) == pytest.approx(0.2 * 0.8, abs=1e-15)


def test_degenerate_probability_rejected():
    with pytest.raises(InvalidMechanism):
        Mechanism("bad", (1.0,))
    with pytest.raises(InvalidMechanism):
        Mechanism("bad", 0.0)
    with pytest.raises(InvalidMechanism):
        Mechanism("bad", (0.5, -0.1))


def test_mech_prob_arity_mismatch():
    m = Mechanism("phi", (0.3, 0.4, 0.5))
    with pytest.raises(ArityMismatch):
        mech_prob(m, (1, 0))


def test_enumerate_single():
    out = enumerate_assignments(1)
    assert out.tolist() == [[0], [1]]


def test_enumerate_lexicographic_and_distinct():
    out = enumerate_assignments(3)
    rows = [tuple(r) for r in out.tolist()]
    assert len(rows) == 8
    assert len(set(rows)) == 8
    assert rows == sorted(rows)


def test_enumerate_cap():
    with pytest.raises(EnumerationTooLarge):
        enumerate_assignments(25)
    # the cap is configurable, not hardwired
    assert enumerate_assignments(4, cap=4).shape == (16, 4)
    with pytest.raises(EnumerationTooLarge):
        enumerate_assignments(5, cap=4)


def test_sample_deterministic_given_seed():
    m = Mechanism("phi", 0.5)
    a = protocol_draws(m, 4, 100, seed=99)
    b = protocol_draws(m, 4, 100, seed=99)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, protocol_draws(m, 4, 100, seed=98))


def test_sample_concentrates_near_extreme_probability():
    p = 0.99
    m = Mechanism("phi", p)
    bits = protocol_draws(m, 1, 1000, seed=5)
    se = math.sqrt(p * (1 - p) / 1000)
    assert abs(bits.mean() - p) <= 3 * se


def test_sample_joint_frequency_matches_product_law():
    m = Mechanism("phi", (0.2, 0.8))
    draws = 100_000
    hits = int((protocol_draws(m, 2, draws, seed=11) == 1).all(axis=1).sum())
    target = mech_prob(m, (1, 1))
    assert target == pytest.approx(0.16, abs=1e-12)
    se = math.sqrt(target * (1 - target) / draws)
    assert abs(hits / draws - target) <= 3 * se


@given(
    st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_assignment_probs_sum_to_one(probs):
    m = Mechanism("m", tuple(probs))
    total = float(assignment_probs(m, len(probs)).sum())
    assert abs(total - 1.0) <= 1e-12


@given(
    st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=16),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_mech_prob_reassociation_stable(probs, pyrandom):
    n = len(probs)
    m = Mechanism("m", tuple(probs))
    z = [pyrandom.randint(0, 1) for _ in range(n)]
    forward = mech_prob(m, z)
    backward = 1.0
    for p, zz in reversed(list(zip(probs, z))):
        backward *= p if zz else 1.0 - p
    assert abs(forward - backward) <= 1e-14


def test_empirical_frequencies_chi_square_sane():
    m = Mechanism("phi", (0.3, 0.5, 0.7))
    draws = 20_000
    counts = np.bincount(protocol_draws(m, 3, draws, seed=123) @ np.array([4, 2, 1]),
                         minlength=8)
    stat = 0.0
    for observed, p in zip(counts, assignment_probs(m, 3)):
        expected = draws * float(p)
        stat += (observed - expected) ** 2 / expected
    # chi-square(7) 0.999 quantile
    assert stat < 24.322


def test_mechanisms_identical_detects_broadcast_equality():
    a = Mechanism("a", 0.5)
    b = Mechanism("b", (0.5, 0.5, 0.5))
    assert mechanisms_identical(a, b, sizes={3})
    assert not mechanisms_identical(a, Mechanism("c", (0.5, 0.4, 0.5)), sizes={3})
    assert not mechanisms_identical(a, Mechanism("d", 0.2), sizes={3})
