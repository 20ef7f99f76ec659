"""Infinite Blaschke product with zeros accumulating at +-1.

The product is

    B(z) = z * prod_{n>=1} (a_n^2 - z^2) / (1 - a_n^2 z^2),
    a_n = (tau^n - 1) / (tau^n + 1) = tanh(n s / 2),   s = log tau > 1,

an inner function fixing 0 whose only boundary singularities are +-1.
The scale parameter tau is pinned to the attracting multiplier 2*alpha of the
companion maps exp(alpha*(z - 1/z)) and 2*alpha*sin(z) through the defining
equation

    B'(0) = prod_{n>=1} a_n^2 = 2*alpha,

which is forced by conjugacy invariance of fixed-point multipliers.  The left
side is strictly increasing in s with limits 0 and 1, so the solution is
unique for every alpha in (0, 1/2).

Truncation is certified: factor_n(z) - 1 = (a_n^2 - 1)(1 + z^2)/(1 - a_n^2 z^2)
and 1 - a_n^2 <= 4 tau^-n, so on the closed disk minus neighbourhoods of +-1
the factor deviations are geometrically summable and the partial product can
be driven below any target error with an explicit term count.

This module alone decides "too close to +-1".  ``required_terms``, which
every evaluation runs, refuses points within the fixed chordal distance
``EXCLUSION`` of a singularity.  ``in_exclusion_zone`` is the same test as
a mask: points it clears are never refused for the zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import map_zoo
from .errors import FatouLabError, NoSignChange, OutOfRange, TooCloseToSingularity

TWO_PI = 2.0 * math.pi

BLASCHKE = "blaschke"  # JSON kind of the product's boundary map

# radius of the zones around +-1 in which evaluation is refused
EXCLUSION = 1e-3
DEFAULT_TARGET_ERR = 1e-9

@dataclass(frozen=True)
class TauSolution:
    """Root of prod tanh^2(n s / 2) = 2 alpha."""

    alpha: float
    tau: float
    s: float
    residual: float
    product_terms_used: int


def _product_terms(s: float) -> int:
    # |2 log tanh(n s / 2)| ~ 4 exp(-n s); 42/s terms push the log-tail
    # below ~1e-17.  Capped for brackets probing very small s, where only the
    # sign of log P matters.
    return min(int(math.ceil(42.0 / s)) + 8, 60_000)


def log_multiplier_product(s: float) -> float:
    """log prod_{n=1..N} tanh^2(n s / 2), evaluated as a sum of logs.

    Working in log space keeps small-s evaluations (where the raw product
    underflows to 0) exact enough for sign tests during bisection.
    """
    if s <= 0:
        raise OutOfRange(f"log_multiplier_product requires s > 0, got {s}")
    k = np.arange(1, _product_terms(s) + 1, dtype=np.float64)
    return float(2.0 * np.log(np.tanh(k * (s / 2.0))).sum())


def solve_tau(alpha: float, tol: float = 1e-12,
              bracket: tuple = (1e-6, 60.0)) -> TauSolution:
    """Solve for s = log tau with prod tanh^2(n s/2) = 2 alpha, by bisection.

    The equation's left side is strictly increasing in s with limits 0 and 1,
    so the root is unique; any bracket containing it gives the same answer.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise OutOfRange(f"solve_tau requires alpha in (0, 1/2), got {alpha}")
    if not tol > 0:
        raise OutOfRange(f"solve_tau requires tol > 0, got {tol}")
    target = math.log(2.0 * alpha)

    def g(s):
        return log_multiplier_product(s) - target

    lo, hi = float(bracket[0]), float(bracket[1])
    try:
        s = map_zoo.bisect(g, lo, hi, tol=1e-15)
    except NoSignChange as exc:
        raise NoSignChange(
            f"bracket {bracket} does not contain the root for alpha={alpha}"
        ) from exc
    residual = abs(math.exp(log_multiplier_product(s)) - 2.0 * alpha)
    if residual > tol:
        raise OutOfRange(
            f"bisection residual {residual:.3g} exceeds requested tol {tol:.3g}"
        )
    return TauSolution(alpha=alpha, tau=math.exp(s), s=s,
                       residual=residual, product_terms_used=_product_terms(s))


def _saturation_horizon(s: float) -> int:
    """Largest n with tanh(n s / 2) < 1 in double precision.

    Beyond it the factors are numerically indistinguishable from 1 (the tail
    bound at the horizon is ~1e-14 even at the exclusion radius), so
    nothing representable is lost by stopping there.
    """
    n = max(1, int(math.floor(38.0 / s)) + 2)
    while n > 1 and math.tanh(n * s / 2.0) >= 1.0:
        n -= 1
    while math.tanh((n + 1) * s / 2.0) < 1.0:
        n += 1
    return n


@dataclass(frozen=True)
class BlaschkeProduct:
    """Zero data of the product.

    ``zeros`` holds a_n = tanh(n s / 2) for n = 1..horizon, where the
    saturation horizon is the last n with a_n < 1 in double precision: the
    factors past it are exactly 1, so no evaluation uses more terms.

    A product is also the circle map of kind ``BLASCHKE``: circle_dynamics
    iterates it beside the map_zoo MapSpecs of the circle kinds.
    """

    kind = BLASCHKE  # a class attribute, not a field

    alpha: float
    tau: float
    s: float
    zeros: np.ndarray

    @classmethod
    def from_tau(cls, ts: TauSolution) -> "BlaschkeProduct":
        zeros = np.tanh(np.arange(1, _saturation_horizon(ts.s) + 1) * (ts.s / 2.0))
        return cls(alpha=ts.alpha, tau=ts.tau, s=ts.s, zeros=zeros)

    @classmethod
    def from_alpha(cls, alpha: float, tol: float = 1e-12) -> "BlaschkeProduct":
        return cls.from_tau(solve_tau(alpha, tol=tol))

    @property
    def horizon(self) -> int:
        """The saturation horizon: no evaluation uses more terms."""
        return self.zeros.size

    @cached_property
    def zeros_squared(self) -> np.ndarray:
        """a_n^2 for n = 1..horizon, the factor coefficients of evaluation."""
        return self.zeros * self.zeros


def in_exclusion_zone(z):
    """Whether min(|z - 1|, |z + 1|) <= EXCLUSION, elementwise: the points
    that every evaluation refuses."""
    z = np.asarray(z, dtype=np.complex128)
    return np.minimum(np.abs(z - 1.0), np.abs(z + 1.0)) <= EXCLUSION


def _excluded() -> TooCloseToSingularity:
    return TooCloseToSingularity(
        f"evaluation within {EXCLUSION:.3g} of a singularity at +-1")


def _past_horizon(target_err: float) -> TooCloseToSingularity:
    return TooCloseToSingularity(
        f"double precision cannot certify target_err={target_err:.3g} "
        "this close to the singularities")


def _tail_at_horizon(B: BlaschkeProduct, u, w):
    """Certified bound on the factors past the saturation horizon."""
    return (16.0 * u / (w * (1.0 - 1.0 / B.tau))) * B.tau ** -(B.horizon + 1.0)


def required_terms(B: BlaschkeProduct, z, target_err: float = DEFAULT_TARGET_ERR):
    """Product terms needed to bound the truncation error below target_err at z.

    Scalar z gives an int; an array gives an int array.  Raises
    TooCloseToSingularity if z lies in the exclusion zone around +-1 or if
    the factors up to the saturation horizon cannot certify target_err.
    """
    if not target_err > 0:
        raise OutOfRange(f"target_err must be > 0, got {target_err}")
    if isinstance(z, (int, float, complex)):
        try:
            return _required_terms_one(B, complex(z), target_err)
        except (ArithmeticError, ValueError):
            pass  # a bound at zero or infinity: numpy's IEEE arithmetic copes
    z_arr = np.asarray(z, dtype=np.complex128)
    if np.any(in_exclusion_zone(z_arr)):
        raise _excluded()
    w = np.abs(1.0 - z_arr * z_arr)
    u = np.maximum(np.abs(1.0 + z_arr * z_arr), 1e-300)
    log_tau = B.s
    # past n0 the factor denominators are bounded below by w/2
    n0 = np.ceil(np.log(8.0 / w) / log_tau)
    geom = np.ceil(
        np.log(16.0 * u / (w * (1.0 - 1.0 / B.tau) * target_err)) / log_tau
    )
    n = np.maximum(np.maximum(n0, geom), 1.0)
    # past the saturation horizon the remaining factors are exactly 1 in
    # double precision; check the bound still certifies the target there
    clipped = n > B.horizon
    if np.any(clipped):
        if np.any(_tail_at_horizon(B, u, w)[clipped] > target_err):
            raise _past_horizon(target_err)
        n = np.minimum(n, B.horizon)
    n = n.astype(np.int64)
    return n if z_arr.ndim else int(n)


def _required_terms_one(B: BlaschkeProduct, z: complex, target_err: float) -> int:
    """required_terms at one point: the same formula and refusals in math."""
    if min(abs(z - 1.0), abs(z + 1.0)) <= EXCLUSION:
        raise _excluded()
    zz = z * z
    w = abs(1.0 - zz)
    u = max(abs(1.0 + zz), 1e-300)
    bound = max(math.log(8.0 / w) / B.s,
                math.log(16.0 * u / (w * (1.0 - 1.0 / B.tau) * target_err)) / B.s,
                1.0)
    n = math.ceil(bound)
    if n > B.horizon:
        if _tail_at_horizon(B, u, w) > target_err:
            raise _past_horizon(target_err)
        n = B.horizon
    return n


_OUTSIDE_DISK = "eval_blaschke requires |z| <= 1"


def eval_blaschke(B: BlaschkeProduct, z, target_err: float = 1e-12, terms=None):
    """Partial product with certified truncation error below target_err.

    Accepts a scalar or an array of points with |z| <= 1.  The factors tend
    to 1 geometrically, so the partial product is accumulated directly; a log
    sum would be ill-defined at the zeros +-a_n and gains nothing here.

    An array multiplies every point by the largest ``required_terms`` of any
    of its points.  ``terms`` gives that count instead, unchecked: a caller
    that evaluates one sample in blocks passes the maximum over all of its
    blocks, so that each block gets the bits of the whole array.
    """
    z_arr = np.asarray(z, dtype=np.complex128)
    if z_arr.size == 1 and terms is None:
        out = _eval_one(B, z_arr.reshape(1), target_err)
        return complex(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)
    if np.any(np.abs(z_arr) > 1.0 + 1e-12):
        raise OutOfRange(_OUTSIDE_DISK)
    if terms is None:
        terms = np.max(required_terms(B, z_arr, target_err), initial=0)
    z2 = z_arr * z_arr
    out = z_arr.copy()
    for a2 in B.zeros_squared[:int(terms)]:
        out *= (a2 - z2) / (1.0 - a2 * z2)
    return out


def _eval_one(B: BlaschkeProduct, z1: np.ndarray, target_err: float) -> np.ndarray:
    """eval_blaschke at the point of the one-element array z1.

    All factors are built in one broadcast and multiplied in order by one
    reduction, which rounds like the in-place product of one-element arrays:
    this reproduces the per-term loop over a one-element array bit for bit.
    numpy's products over longer arrays fuse multiply-adds and round
    differently, so longer inputs keep their own loop.
    """
    z = complex(z1[0])
    if abs(z) > 1.0 + 1e-12:
        raise OutOfRange(_OUTSIDE_DISK)
    a2 = B.zeros_squared[:required_terms(B, z, target_err)]
    z2 = z1 * z1
    return np.multiply.reduce(np.concatenate((z1, (a2 - z2) / (1.0 - a2 * z2))),
                              keepdims=True)


def derivative_at_zero(B: BlaschkeProduct) -> float:
    """B'(0) = prod a_n^2 over every zero, accumulated in log space.

    Equals 2*alpha up to the tau-solve residual, far below 1e-10: the
    factors past the saturation horizon are exactly 1.
    """
    return float(math.exp(2.0 * np.log(B.zeros).sum()))


def circle_eval_many(B: BlaschkeProduct, thetas,
                     target_err: float = DEFAULT_TARGET_ERR, terms=None) -> np.ndarray:
    """Boundary map angles arg B(e^(i theta)), reduced to [0, 2*pi), for an
    array of angles, 0-d included.

    Every e^(i theta) must lie outside the exclusion zone around +-1.  The
    values' moduli are checked against 1 before the arguments are taken.
    ``terms`` is passed to eval_blaschke.
    """
    th = np.asarray(thetas, dtype=np.float64)
    # eval_blaschke answers a 0-d point with a Python complex
    vals = np.asarray(eval_blaschke(B, np.exp(1j * th), target_err, terms))
    if vals.size == 1:  # an orbit step: skip np.max's per-call overhead
        worst = abs(abs(vals.item()) - 1.0)
    else:
        worst = float(np.max(np.abs(np.abs(vals) - 1.0), initial=0.0))
    if worst > max(target_err, 1e-13):
        raise FatouLabError(
            f"boundary modulus check failed: | |B| - 1 | = {worst:.3g}"
        )
    return np.angle(vals) % TWO_PI
