"""Independent-Bernoulli encouragement mechanisms.

A mechanism assigns each individual of a block an independent probability of
being encouraged, so it induces a product law on the block's binary
encouragement vector. ``unit_marginals`` lays the per-individual
probabilities out over a population's blocks: ``peerenc.estimands`` averages
over the law through them and ``peerenc.design`` draws from it.
"""

from __future__ import annotations

import numpy as np

from ._report import Record
from .errors import ArityMismatch, InvalidMechanism


class Mechanism(Record):
    """A per-individual Bernoulli encouragement law.

    ``probs`` is either a scalar (broadcast to every individual of any block)
    or a tuple with one probability per individual of a block of that exact
    size. All probabilities must lie strictly inside (0, 1): degenerate
    encouragement would make inverse-probability estimators undefined.
    """

    name: str
    probs: float | tuple[float, ...]

    def __post_init__(self):
        if isinstance(self.probs, (int, float)):
            ps = (float(self.probs),)
            object.__setattr__(self, "probs", float(self.probs))
        else:
            ps = tuple(float(p) for p in self.probs)
            if not ps:
                raise InvalidMechanism(f"mechanism {self.name!r} has no probabilities")
            object.__setattr__(self, "probs", ps)
        for p in ps:
            if not (0.0 < p < 1.0) or not np.isfinite(p):
                raise InvalidMechanism(
                    f"mechanism {self.name!r}: probability {p!r} outside (0, 1)"
                )

    def marginals(self, n: int) -> np.ndarray:
        """Per-individual encouragement probabilities for a block of size n."""
        if isinstance(self.probs, float):
            return np.full(n, self.probs)
        if len(self.probs) != n:
            raise ArityMismatch(
                f"mechanism {self.name!r} has arity {len(self.probs)}, block has {n}"
            )
        return np.asarray(self.probs)


def unit_marginals(mech: Mechanism, sizes) -> np.ndarray:
    """The mechanism's encouragement probability of every individual of
    blocks of these sizes, in block order: one ``marginals(n)`` per distinct
    size, laid out by index arithmetic."""
    sizes = np.fromiter(sizes, dtype=np.int64)
    distinct, which = np.unique(sizes, return_inverse=True)
    probs = np.concatenate([mech.marginals(int(n)) for n in distinct])
    # individual j of a block of the k-th distinct size reads probs[offset[k] + j]
    offset = np.cumsum(distinct) - distinct
    first = np.cumsum(sizes) - sizes
    return probs[np.repeat(offset[which] - first, sizes) + np.arange(sizes.sum())]
