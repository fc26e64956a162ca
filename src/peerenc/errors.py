"""Semantic exception hierarchy shared by all peerenc modules."""


class PeerEncError(Exception):
    """Base class for all peerenc errors."""


class ArityMismatch(PeerEncError):
    """A vector's length does not match the block size it is used with."""


class InvalidMechanism(PeerEncError):
    """An encouragement probability falls outside the open interval (0, 1)."""


class EnumerationTooLarge(PeerEncError):
    """Exhaustive assignment enumeration would exceed the configured cap."""


class FlagMismatch(PeerEncError):
    """A declared population flag contradicts the individual-level data."""


class InvalidConfig(PeerEncError):
    """A data-generating or run configuration is internally inconsistent."""


class GenerationFailed(PeerEncError):
    """A synthetic population satisfying the config could not be generated."""


class MissingTableEntry(PeerEncError):
    """An outcome table does not cover a requested treatment profile."""


class ExclusionViolated(PeerEncError):
    """An operation defined only for encouragement-free outcomes was applied
    to an individual whose outcome depends on encouragements."""


class EmptyStratumInBlock(PeerEncError):
    """A stratum-restricted block average has no individuals in the stratum."""


class ZeroEncouragementEffect(PeerEncError):
    """The encouragement has no average effect on treatment uptake, so
    ratio-form identities are undefined."""


class InvalidDesign(PeerEncError):
    """A design configuration violates the protocol's preconditions."""


class EmptyArm(PeerEncError):
    """A population-level estimator was requested for an arm with no blocks."""


class AllBlocksUndefined(PeerEncError):
    """Every block was excluded from a ratio estimator, leaving no data."""


class ZeroEncouragementEffectEstimate(PeerEncError):
    """The estimated encouragement effect is numerically zero, so plug-in
    ratio estimators are undefined for this realization."""


class InvalidData(PeerEncError, ValueError):
    """Realized experiment data are malformed or inconsistent with one run
    of the design."""
