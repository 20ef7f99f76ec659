"""Exception hierarchy shared by all fatoulab modules."""


class FatouLabError(Exception):
    """Base class for all errors raised by this package."""


class ExponentOverflow(FatouLabError):
    """The exponent of an exponential-type map left the safe range."""


class NoSignChange(FatouLabError):
    """Bisection bracket endpoints do not straddle a root."""


class UnsupportedMap(FatouLabError):
    """The requested operation is not defined for this map or model pair."""


class OutsideDisk(FatouLabError):
    """A covering-map argument lies outside the open unit disk."""


class OutOfRange(FatouLabError):
    """A numeric parameter violates its documented range."""


class TooCloseToSingularity(FatouLabError):
    """Evaluation requested inside the exclusion zone around a boundary singularity.

    ``min_usable_radius`` is the smallest distance from the singularities at
    which the requested accuracy is attainable.
    """

    def __init__(self, message, min_usable_radius):
        super().__init__(message)
        self.min_usable_radius = min_usable_radius


class SingularityApproach(FatouLabError):
    """A circle orbit entered the exclusion zone of a boundary singularity."""


class OriginNotFixed(FatouLabError):
    """A disk map that must fix the origin does not."""


class EmptyInput(FatouLabError):
    """An operation received an empty sample collection."""


class BasePointOnBoundary(FatouLabError):
    """The Brownian base point is not strictly interior to the domain."""


class StallRateExceeded(FatouLabError):
    """Too many random walks hit the step cap for the run to be accepted."""


class DomainMismatch(FatouLabError):
    """Two descriptions of the same domain disagree."""


class LoopNotInBasin(FatouLabError):
    """A probe loop leaves the attracted region at pixel resolution."""
