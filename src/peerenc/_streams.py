"""Derivation of independent, reproducible random streams from one seed.

Every consumer of randomness gets its own stream addressed by a fixed tag
plus its coordinates (replicate index, block index). Streams are derived
with SeedSequence spawn keys, so any stream can be reconstructed in
isolation and no ordering or degree of parallelism can perturb another
stream's draws.

Stream layout v1: replicate r's arm assignment is the first permutation
drawn from stream (seed; ARM, r), and block i's encouragement draws are the
first n_i uniforms of stream (seed; ENCOURAGEMENT, r, i), each stream being
``Generator(PCG64(SeedSequence(seed, spawn_key=path)))``.
``encouragement_uniforms`` derives the encouragement streams of many
replicates at once by recomputing SeedSequence's hash and PCG64's seeding
and output over arrays; it returns numpy's own draws bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

ARM = 1  # block-to-mechanism assignment, per replicate
ENCOURAGEMENT = 2  # within-block encouragement draws, per (replicate, block)

# Replicate and block indices stay below 2^32, so each takes one word of a
# spawn key (a larger index takes two and is not derived in bulk).
INDEX_LIMIT = 1 << 32

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def stream(seed: int, *path: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def _hash_const(calls: int, init: int, mult: int) -> int:
    """The hash constant after ``calls`` multiplications."""
    return init * pow(mult, calls, 1 << 32) & _M32


def _hashmix(value: np.ndarray, calls: int) -> np.ndarray:
    """SeedSequence's hashmix as its ``calls``-th call (0-based)."""
    value = (value ^ _hash_const(calls, _INIT_A, _MULT_A)) * _hash_const(calls + 1, _INIT_A, _MULT_A)
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _mix_word(pool: list, word: np.ndarray, calls: int) -> int:
    """Mix one entropy word past the pool size into every pool word, as
    SeedSequence does; returns the hashmix call count after it."""
    for dst in range(_POOL_SIZE):
        pool[dst] = _mix(pool[dst], _hashmix(word, calls + dst))
    return calls + _POOL_SIZE


@lru_cache(maxsize=16)
def _tag_pool(seed: int, tag: int) -> tuple[tuple[int, ...], int]:
    """The pool of SeedSequence(seed, spawn_key=(tag, ...)) once the seed and
    the tag are mixed in, and the hashmix calls made so far: the seed's words
    are padded to the pool size, the first pool-size words take one call
    each, the all-pairs mix takes 12 and each later word one per pool word."""
    words = max(-(-seed.bit_length() // 32), 1, _POOL_SIZE) + 1
    pool = np.random.SeedSequence(seed, spawn_key=(tag,)).pool
    return tuple(pool.tolist()), _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (words - _POOL_SIZE)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of two uint64 arrays."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    t = a0 * b0
    u = a1 * b0 + (t >> 32)
    v = a0 * b1 + (u & _M32)
    return a1 * b1 + (u >> 32) + (v >> 32)


def _mul128(xh, xl, ah, al):
    """(xh, xl) * (ah, al) mod 2^128, as (high, low) uint64 halves."""
    return _mulhi(xl, al) + xl * ah + xh * al, xl * al


def _add128(xh, xl, yh, yl):
    low = xl + yl
    return xh + yh + (low < xl), low


def _halves(values) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _jumps(n: int) -> tuple[tuple, tuple]:
    """M^(j+2) and 1 + M + ... + M^(j+1) for draws j < n, as uint64 halves."""
    powers, sums, p, g = [], [], _PCG_MULT * _PCG_MULT & _M128, 1 + _PCG_MULT
    for _ in range(n):
        powers.append(p)
        sums.append(g)
        g = (g + p) & _M128
        p = p * _PCG_MULT & _M128
    return _halves(powers), _halves(sums)


def encouragement_uniforms(seed: int, replicates, sizes) -> np.ndarray:
    """Row r holds, block after block, the first n_i uniforms of stream
    (seed; ENCOURAGEMENT, replicates[r], i): bit for bit what
    ``stream(seed, ENCOURAGEMENT, replicates[r], i).random(n_i)`` returns.

    Every replicate and block index must be below INDEX_LIMIT.
    """
    reps = np.asarray(replicates, dtype=np.uint64)
    sizes = np.asarray(sizes, dtype=np.int64)
    b = sizes.size
    # SeedSequence: the replicate word, then the block word, past the pool
    pool, calls = _tag_pool(int(seed), ENCOURAGEMENT)
    pool = [np.full(1, w, dtype=np.uint32) for w in pool]
    calls = _mix_word(pool, reps.astype(np.uint32), calls)
    pool = [w[:, None] for w in pool]
    _mix_word(pool, np.arange(b, dtype=np.uint32)[None, :], calls)
    # generate_state(4, uint64): eight hashed words read as four little-endian uint64
    words = []
    for i in range(2 * _POOL_SIZE):
        value = (pool[i % _POOL_SIZE] ^ _hash_const(i, _INIT_B, _MULT_B)) \
            * _hash_const(i + 1, _INIT_B, _MULT_B)
        words.append((value ^ (value >> 16)).astype(np.uint64))
    s0, s1, s2, s3 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    # PCG64 srandom: inc = initseq << 1 | 1 and y0 = initstate + inc, one
    # (replicate, block) entry each, repeated over the block's members
    inc_h, inc_l = s2 << 1 | s3 >> 63, s3 << 1 | 1
    y_h, y_l = _add128(s0, s1, inc_h, inc_l)
    y_h, y_l, inc_h, inc_l = (np.repeat(x, sizes, axis=1) for x in (y_h, y_l, inc_h, inc_l))
    # draw j of a stream outputs the state M^(j+2) y0 + (1 + M + ... + M^(j+1)) inc
    pos = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    (p_h, p_l), (g_h, g_l) = _jumps(int(sizes.max(initial=0)))
    state_h, state_l = _add128(*_mul128(y_h, y_l, p_h[pos], p_l[pos]),
                               *_mul128(inc_h, inc_l, g_h[pos], g_l[pos]))
    # XSL-RR output, then the 53-bit double
    x = state_h ^ state_l
    rot = state_h >> 58
    out = x >> rot | x << ((64 - rot) & 63)
    return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
