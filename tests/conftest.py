"""Shared population builders for the test suite.

Populations are built the way a population file is read: each individual is
described in the population JSON format and ``population_from_dict`` fills
the arrays."""

from __future__ import annotations

import numpy as np
import pytest

from peerenc.population import Population, population_from_dict

PT = {"at": (1, 1), "co": (0, 1), "nt": (0, 0), "de": (1, 0)}


def person(kind: str, outcome: dict) -> dict:
    """One individual of the population JSON format, by stratum label."""
    d0, d1 = PT[kind]
    return {"d0": d0, "d1": d1, "outcome": outcome}


def structural(**coef) -> dict:
    """A structural outcome; absent coefficients are zero."""
    return {"kind": "structural", **coef}


def table(values) -> dict:
    """A table outcome from its entries in row order: (2^n,) values, or
    (2^n, 2^n) for one keyed by the encouragement vector as well."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0].bit_length() - 1
    rows = [format(r, f"0{n}b") for r in range(2**n)]
    if values.ndim == 1:
        return {"kind": "table", "size": n, "values": dict(zip(rows, values.tolist()))}
    return {"kind": "table_z", "size": n,
            "values": {f"{d}|{z}": v for d, row in zip(rows, values.tolist())
                       for z, v in zip(rows, row)}}


def population(blocks) -> Population:
    """A population from blocks of JSON individuals, flagged with what the
    individuals satisfy."""
    inds = [ind for block in blocks for ind in block]
    return population_from_dict({
        "flags": {
            "monotone": all((ind["d0"], ind["d1"]) != PT["de"] for ind in inds),
            "one_sided": all(ind["d0"] == 0 for ind in inds),
            "exclusion_ok": all(ind["outcome"]["kind"] != "table_z" for ind in inds),
        },
        "blocks": [list(block) for block in blocks],
    })


def make_individual(kind: str, rng: np.random.Generator | None = None, **overrides) -> dict:
    params = dict(intercept=0.0, direct=0.0, peer=0.0, interaction=0.0, curvature=0.0, noise=0.0)
    if rng is not None:
        params.update(
            intercept=float(rng.normal(0, 1)),
            direct=float(rng.normal(2, 1)),
            peer=float(rng.normal(0.5, 0.3)),
            interaction=float(rng.normal(0.3, 0.2)),
            curvature=float(rng.normal(0.0, 0.05)),
            noise=float(rng.normal(0, 0.5)),
        )
    params.update(overrides)
    return person(kind, structural(**params))


def make_population(block_kinds: list[list[str]], rng: np.random.Generator | None = None,
                    **overrides) -> Population:
    """Population from stratum labels, with random or overridden outcome params."""
    return population([[make_individual(kind, rng, **overrides) for kind in kinds]
                       for kinds in block_kinds])


def random_monotone_kinds(rng: np.random.Generator, n_blocks: int, size_range=(2, 5)):
    """Random stratum labels with no defiers and >=1 complier per block."""
    kinds = []
    for _ in range(n_blocks):
        n = int(rng.integers(size_range[0], size_range[1] + 1))
        labels = [("co", "nt", "at")[int(rng.integers(3))] for _ in range(n)]
        if "co" not in labels:
            labels[int(rng.integers(n))] = "co"
        kinds.append(labels)
    return kinds


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
