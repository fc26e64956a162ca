"""Random population families used by the property and acceptance tests.

The ratio-form identities (theorems 1 and 2) aggregate exactly to the
population level only when every block has the same uptake effect, so the
corresponding fuzzers hold the per-block complier fraction constant while
varying everything else (sizes across populations, strata fill, outcome
heterogeneity, representation, mechanism probabilities). The unconstrained
monotone fuzzer varies the complier fraction too and is used for the
block-level identities and the individual-level decompositions.
"""

from __future__ import annotations

import numpy as np

from peerenc.mechanisms import Mechanism
from peerenc.population import (
    Population,
    convert_to_tables,
    population_from_dict,
    population_to_dict,
)
from conftest import person, population, structural


def _random_outcome(rng: np.random.Generator) -> dict:
    return structural(
        intercept=float(rng.normal(0, 1)),
        direct=float(rng.normal(2, 1)),
        peer=float(rng.normal(0.5, 0.4)),
        interaction=float(rng.normal(0.4, 0.3)),
        curvature=float(rng.normal(0.0, 0.08)),
        noise=float(rng.normal(0, 0.5)),
    )


def _assemble(blocks_kinds, rng, mixed_tables=True) -> Population:
    pop = population([[person(k, _random_outcome(rng)) for k in kinds]
                      for kinds in blocks_kinds])
    if mixed_tables and max(pop.sizes) <= 10 and rng.random() < 0.5:
        # re-encode a random subset of blocks as explicit tables (same math)
        data, tabled = population_to_dict(pop), population_to_dict(convert_to_tables(pop))
        pick = rng.random(pop.n_blocks) < 0.5
        data["blocks"] = [t if p else b for p, b, t in zip(pick, data["blocks"], tabled["blocks"])]
        pop = population_from_dict(data)
    return pop


def _mechanism_pair(rng: np.random.Generator, sizes) -> tuple[Mechanism, Mechanism]:
    if len(set(sizes)) == 1 and rng.random() < 0.7:
        n = sizes[0]
        probs_a = tuple(float(p) for p in rng.uniform(0.55, 0.9, size=n))
        probs_b = tuple(float(p) for p in rng.uniform(0.1, 0.45, size=n))
        return Mechanism("phi", probs_a), Mechanism("psi", probs_b)
    pa = float(rng.uniform(0.55, 0.9))
    pb = float(rng.uniform(0.1, 0.45))
    return Mechanism("phi", pa), Mechanism("psi", pb)


def equal_effect_monotone(rng: np.random.Generator, b_range=(2, 20), n_range=(1, 10)):
    """Monotone population where every block shares one complier fraction."""
    b = int(rng.integers(b_range[0], b_range[1] + 1))
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    n_co = int(rng.integers(1, n + 1))
    blocks_kinds = []
    for _ in range(b):
        fill = [("at", "nt")[int(rng.integers(2))] for _ in range(n - n_co)]
        kinds = ["co"] * n_co + fill
        rng.shuffle(kinds)
        blocks_kinds.append(kinds)
    pop = _assemble(blocks_kinds, rng)
    return pop, *_mechanism_pair(rng, pop.sizes)


def varying_effect_monotone(rng: np.random.Generator, b_range=(2, 8), n_range=(1, 6)):
    """Monotone population with freely varying complier fractions."""
    b = int(rng.integers(b_range[0], b_range[1] + 1))
    blocks_kinds = []
    for _ in range(b):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        kinds = [("co", "at", "nt")[int(rng.integers(3))] for _ in range(n)]
        if "co" not in kinds:
            kinds[int(rng.integers(n))] = "co"
        blocks_kinds.append(kinds)
    pop = _assemble(blocks_kinds, rng)
    return pop, *_mechanism_pair(rng, pop.sizes)


def one_sided_population(rng: np.random.Generator, b_range=(2, 12), n_range=(1, 8),
                         mirror=False, equal_effect=False):
    """No always-takers or defiers (d0=0 everywhere); with mirror=True the
    dual family (d1=1 everywhere: compliers and always-takers only). With
    equal_effect every block shares one size and complier count, so the
    ratio-form identities hold at the population level too."""
    b = int(rng.integers(b_range[0], b_range[1] + 1))
    other = "at" if mirror else "nt"
    blocks_kinds = []
    if equal_effect:
        n = int(rng.integers(max(n_range[0], 1), n_range[1] + 1))
        n_co = int(rng.integers(1, n + 1))
        for _ in range(b):
            kinds = ["co"] * n_co + [other] * (n - n_co)
            rng.shuffle(kinds)
            blocks_kinds.append(kinds)
    else:
        for _ in range(b):
            n = int(rng.integers(n_range[0], n_range[1] + 1))
            kinds = [("co", other)[int(rng.integers(2))] for _ in range(n)]
            if "co" not in kinds:
                kinds[int(rng.integers(n))] = "co"
            blocks_kinds.append(kinds)
    pop = _assemble(blocks_kinds, rng)
    return pop, *_mechanism_pair(rng, pop.sizes)


def defier_population(rng: np.random.Generator, b=2, n=4):
    """Small population containing one defier per block, plus two compliers
    so the uptake effect stays strictly positive and every quantity in the
    identity checks is defined."""
    blocks_kinds = []
    for _ in range(b):
        kinds = ["co", "co", "de"] + [("co", "at", "nt")[int(rng.integers(3))]
                                      for _ in range(n - 3)]
        rng.shuffle(kinds)
        blocks_kinds.append(kinds)
    pop = _assemble(blocks_kinds, rng, mixed_tables=False)
    return pop, *_mechanism_pair(rng, pop.sizes)
