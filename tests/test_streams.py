import numpy as np
import pytest

from peerenc._streams import ENCOURAGEMENT, encouragement_uniforms


def numpy_uniforms(seed, r, sizes):
    """Stream layout v1 read from numpy's own generators, one per block."""
    return np.concatenate([
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(ENCOURAGEMENT, r, i)))).random(n)
        for i, n in enumerate(sizes)
    ])


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 7],
                         ids=["0", "2^32-1", "2^32", "2^64+1", "2^128+7"])
def test_bulk_uniforms_are_numpys_draws_bit_for_bit(seed):
    sizes = list(range(1, 13)) + [3, 1]
    reps = [0, 1, 2**32 - 1]
    got = encouragement_uniforms(seed, reps, sizes)
    want = np.stack([numpy_uniforms(seed, r, sizes) for r in reps])
    assert got.shape == want.shape == (len(reps), sum(sizes))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
