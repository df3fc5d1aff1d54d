"""Exception types shared across the package.

Every failure the engine can diagnose raises a subclass of QHError, so
callers (and the command line driver) can distinguish "bad input" from a
genuine bug.
"""

from __future__ import annotations

__all__ = [
    "QHError",
    "WrongShape",
    "Reorientation",
    "ParityViolation",
    "EmptySupport",
    "NotContained",
    "NotDominant",
    "NotInSupport",
    "TooLarge",
    "NegativeDegree",
    "InconsistentConnector",
    "InexactDivision",
    "UnknownRoot",
    "Incomparable",
    "ConfigError",
    "CensusFailure",
    "InvariantViolation",
]


class QHError(Exception):
    """Base class for all engine errors."""


class WrongShape(QHError):
    """Family/rank pair does not name a simply laced Dynkin diagram."""


class Reorientation(QHError):
    """Arrow set is not an orientation of the expected underlying tree."""


class ParityViolation(QHError):
    """A vertex or height assignment breaks the parity constraint."""


class EmptySupport(QHError):
    """An operation needed a nonzero root but was handed zero."""


class NotContained(QHError):
    """Tilting set is not contained in the object's multiset."""


class NotDominant(QHError):
    """Object is not dominant (generators off the base sections, or deltas)."""


class NotInSupport(QHError):
    """Pivot vertex lies outside the support of the root."""


class TooLarge(QHError):
    """Search space exceeds the hard bound for an exhaustive routine."""


class NegativeDegree(QHError):
    """A term would sit below homological degree zero."""


class InconsistentConnector(QHError):
    """Connector data does not define a chain map between the given complexes."""


class InexactDivision(QHError):
    """Laurent division left a remainder or a fractional coefficient."""


class UnknownRoot(QHError):
    """No cluster variable is indexed by the requested root."""


class Incomparable(QHError):
    """Two monomials are not comparable in the dominance order."""


class ConfigError(QHError):
    """Malformed configuration file or command line input."""


class CensusFailure(QHError):
    """Cluster variables break the finite-type census (d-vectors, positivity)."""


class InvariantViolation(QHError):
    """An identity the engine relies on failed: a bug, not bad input."""
