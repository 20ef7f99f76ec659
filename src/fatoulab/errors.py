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
    """A Blaschke product evaluation too close to its singularities at +-1.

    Raised inside the exclusion zone of fixed radius ``blaschke.EXCLUSION``,
    by an orbit step or a sample as much as by a direct evaluation, and where
    double precision cannot certify the requested accuracy.
    """


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
