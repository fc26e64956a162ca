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
        scalar = isinstance(self.probs, (int, float))
        ps = (float(self.probs),) if scalar else tuple(float(p) for p in self.probs)
        if not ps:
            raise InvalidMechanism(f"mechanism {self.name!r} has no probabilities")
        self.__dict__.update(probs=ps[0] if scalar else ps)
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


def identical_marginals(a: Mechanism, b: Mechanism) -> bool:
    """Whether the two mechanisms give every individual the same
    probability on any population that both cover. A vector covers only
    blocks of its own length, so a scalar is compared with each entry of a
    vector, and two vectors of different lengths cover no block together."""
    if isinstance(a.probs, float) or isinstance(b.probs, float):
        return bool(np.all(np.equal(a.probs, b.probs)))
    return a.probs == b.probs


def unit_marginals(mech: Mechanism, sizes) -> np.ndarray:
    """The mechanism's encouragement probability of every individual of
    blocks of these sizes, in block order. ``marginals(n)`` checks each
    distinct size, smallest first; a mechanism that covers them all (a
    scalar, or a vector of their one size) repeats block after block."""
    sizes = np.fromiter(sizes, dtype=np.int64)
    for n in sorted(set(sizes.tolist())):  # np.unique here loads numpy.ma, 0.4 MB
        mech.marginals(n)
    return np.resize(np.asarray(mech.probs, dtype=float), sizes.sum())
