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
    """A Blaschke product evaluation at its singularities +-1.

    There is no zone around them: the disk evaluator raises it at z = +-1
    and within ~1e-308 of +1, the circle evaluator where cot(theta/2) is
    infinite in floating point (theta = 0 and 0 < theta < ~1.1e-308, mod
    2 pi) and where an orbit lands on +-1 in floating point.
    """


class OriginNotFixed(FatouLabError):
    """A disk map that must fix the origin does not."""


class EmptyInput(FatouLabError):
    """An operation received an empty sample collection."""


class BasePointOnBoundary(FatouLabError):
    """The Brownian base point is not strictly interior to the domain."""


class StallRateExceeded(FatouLabError):
    """Too many random walks hit the step cap for the run to be accepted."""


class LoopNotInBasin(FatouLabError):
    """A probe loop leaves the attracted region at pixel resolution."""
