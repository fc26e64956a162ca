"""Semantic exception hierarchy shared by all peerenc modules."""


class PeerEncError(Exception):
    """Base class for all peerenc errors."""


class ArityMismatch(PeerEncError):
    """A vector's length does not match the block size it is used with."""


class InvalidMechanism(PeerEncError):
    """An encouragement probability falls outside the open interval (0, 1)."""


class FlagMismatch(PeerEncError):
    """A declared population flag contradicts the individual-level data."""


class InvalidConfig(PeerEncError):
    """A data-generating or run configuration is internally inconsistent."""


class GenerationFailed(PeerEncError):
    """A synthetic population satisfying the config could not be generated."""


class MissingTableEntry(PeerEncError):
    """An outcome table does not cover a requested treatment profile."""


class EmptyStratumInBlock(PeerEncError):
    """A stratum-restricted block average has no individuals in the stratum."""


class ZeroEncouragementEffect(PeerEncError):
    """The encouragement has no average effect on treatment uptake, so
    ratio-form identities are undefined."""


class InvalidDesign(PeerEncError):
    """A design configuration violates the protocol's preconditions."""


class AllBlocksUndefined(PeerEncError):
    """Every block was excluded from a ratio estimator, leaving no data."""


class InvalidData(PeerEncError, ValueError):
    """Realized experiment data are malformed or inconsistent with one run
    of the design."""
