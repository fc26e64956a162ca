"""Peer encouragement designs under partial interference: exact causal
estimands on finite populations, the randomized design protocol, sample
estimators, and Monte Carlo verification of the identification identities.

The API lives in the submodules (``peerenc.population``, ``peerenc.design``,
``peerenc.estimands``, ``peerenc.estimators``, ``peerenc.montecarlo``, ...);
import names from them."""

__version__ = "0.1.0"
