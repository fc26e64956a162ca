"""Derivation of independent, reproducible random streams from one seed.

Every consumer of randomness gets its own stream addressed by a fixed tag
plus a coordinate, ``Generator(PCG64(SeedSequence(seed, spawn_key=path)))``
built by numpy itself. Any stream can be reconstructed in isolation, so no
ordering or degree of parallelism can perturb another stream's draws.

Stream layout v2: replicate r draws everything from the one stream
(seed; REPLICATE, r): first ``permutation(B)``, whose first K entries are the
blocks that get mechanism A, then ``random(N)``, one uniform per individual
in block order, each compared with that individual's encouragement
probability. The population comes from stream (seed; POPULATION). Output
bytes are a function of (config, seed, stream-layout version) alone.
"""

from __future__ import annotations

import numpy as np

POPULATION = 0  # the generated population
REPLICATE = 1  # arm assignment, then encouragement uniforms, per replicate


def stream(seed: int, *path: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))
