"""Independent-Bernoulli encouragement mechanisms.

A mechanism assigns each individual of a block an independent probability of
being encouraged. It induces a product law on the block's binary encouragement
vector; this module evaluates that law exactly and enumerates its support in
a canonical (lexicographic) order. ``peerenc.design`` draws from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArityMismatch, EnumerationTooLarge, InvalidMechanism

# Exact enumeration refuses above this block size rather than approximating.
DEFAULT_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class Mechanism:
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

    @property
    def arity(self) -> int | None:
        """Fixed block size this mechanism applies to, or None for scalar."""
        return None if isinstance(self.probs, float) else len(self.probs)

    def marginals(self, n: int) -> np.ndarray:
        """Per-individual encouragement probabilities for a block of size n."""
        if isinstance(self.probs, float):
            return np.full(n, self.probs)
        if len(self.probs) != n:
            raise ArityMismatch(
                f"mechanism {self.name!r} has arity {len(self.probs)}, block has {n}"
            )
        return np.asarray(self.probs)


@lru_cache(maxsize=64)
def _assignment_matrix(n: int) -> np.ndarray:
    idx = np.arange(2**n, dtype=np.int64)
    cols = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
    out = np.stack(cols, axis=1).astype(np.uint8)
    out.setflags(write=False)
    return out


def enumerate_assignments(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """All 2^n binary assignment vectors of length n, lexicographically.

    Returns a read-only (2^n, n) uint8 array; row r is the binary expansion
    of r with the most significant bit first, so the order (and therefore
    every enumerated sum downstream) is bit-reproducible.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > cap:
        raise EnumerationTooLarge(f"2^{n} assignment vectors exceed cap 2^{cap}")
    return _assignment_matrix(n)


def mech_prob(mech: Mechanism, z) -> float:
    """Probability of one assignment vector under the mechanism's product law."""
    z = np.asarray(z)
    if z.ndim != 1 or z.size < 1:
        raise ArityMismatch(f"assignment vector must be 1-d and nonempty, got shape {z.shape}")
    if not np.isin(z, (0, 1)).all():
        raise ValueError("assignment vector entries must be 0 or 1")
    p = mech.marginals(z.size)
    # fixed left-to-right order keeps the product bit-stable
    prob = 1.0
    for pj, zj in zip(p, z):
        prob *= pj if zj else 1.0 - pj
    return prob


def assignment_probs(mech: Mechanism, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Probabilities of all 2^n assignment vectors, in enumeration order."""
    bits = enumerate_assignments(n, cap=cap)
    p = mech.marginals(n)
    w = np.ones(bits.shape[0])
    for j in range(n):
        w *= np.where(bits[:, j] == 1, p[j], 1.0 - p[j])
    return w


def mechanisms_identical(a: Mechanism, b: Mechanism, sizes) -> bool:
    """True when both mechanisms give every individual the same probability
    in every listed block size (i.e. they are not usable as a contrast)."""
    for n in sizes:
        if not np.array_equal(a.marginals(n), b.marginals(n)):
            return False
    return True
