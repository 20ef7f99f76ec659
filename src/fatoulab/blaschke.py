"""Infinite Blaschke product with zeros accumulating at +-1.

The product is

    B(z) = z * prod_{n>=1} (a_n^2 - z^2) / (1 - a_n^2 z^2),
    a_n = (tau^n - 1) / (tau^n + 1) = tanh(n s / 2),   s = log tau > 0,

an inner function fixing 0 whose only boundary singularities are +-1.
The scale parameter tau is pinned to the attracting multiplier 2*alpha of the
companion maps exp(alpha*(z - 1/z)) and 2*alpha*sin(z) through the defining
equation

    B'(0) = prod_{n>=1} a_n^2 = theta_4(e^-s)^2 = 2*alpha,

which is forced by conjugacy invariance of fixed-point multipliers; the
middle equality is Gauss's product for theta_4.  The left side is strictly
increasing in s with limits 0 and 1, so the solution is unique for every
alpha in (0, 1/2).  ``solve_tau`` finds it by Newton's method on the log of
the theta series (``log_multiplier``).

B is evaluated as a theta quotient in the Cayley coordinate.  With
zeta = (1 + z)/(1 - z) the Jacobi triple product (DLMF 20.5) gives

    B = T(-zeta) / T(zeta),   T(zeta) = sum_m tau^(-m(m-1)/2) zeta^(-m),

and T(tau zeta) = zeta T(zeta), so the deck half-shift zeta -> tau*zeta flips
the sign of B on the whole disk.  |zeta| is reduced into [tau^(-1/2),
tau^(1/2)) by a table of powers tau^k, where the series needs a handful of
terms a side; for small s (alpha below ~5e-8) it cancels, and the leading
term of its modular transform, exact to double precision, replaces it.  Only
+-1 (zeta = inf and 0) are singular: there is no exclusion zone.

A disk evaluator, ``eval_blaschke``, and a circle evaluator share one set of
tables, built once per product and then checked against the product.  On the
circle zeta = iu with u = cot(theta/2), and T(-iu) is the conjugate of T(iu),
so arg B = -2 arg T(iu): ``circle_eval_many`` maps angles and ``circle_orbit``
iterates in u.  They refuse only where u is 0 or +-inf in floating point:
theta = 0 and 0 < theta < ~1.1e-308 (mod 2 pi), or an orbit landing on +-1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import BLASCHKE
from .errors import FatouLabError, OutOfRange, TooCloseToSingularity

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TauSolution:
    """Root of theta_4(e^-s)^2 = 2 alpha."""

    alpha: float
    tau: float
    s: float
    residual: float


def log_multiplier(s: float) -> tuple:
    """(L, dL/ds) for L(s) = log theta_4(e^-s)^2 = log B'(0) at scale s.

    theta_4(e^-s) is 1 + 2 sum_{n>=1} (-1)^n e^(-n^2 s) for s >= 1 and, by
    Jacobi's imaginary transformation (DLMF 20.7), sqrt(pi/s) theta_2(p) =
    2 sqrt(pi/s) p^(1/4) (1 + sum_{n>=1} p^(n(n+1))), p = e^(-pi^2/s), below,
    whose log neither cancels nor underflows as s -> 0.  Seven terms of either
    series leave a tail below 1e-18.
    """
    if not s > 0:
        raise OutOfRange(f"log_multiplier requires s > 0, got {s}")
    x = dx = 0.0
    if s >= 1.0:
        for n in range(7, 0, -1):
            term = math.exp(-n * n * s) * (-1.0) ** n
            x += 2.0 * term
            dx -= 2.0 * n * n * term
        return 2.0 * math.log1p(x), 2.0 * dx / (1.0 + x)
    c = math.pi ** 2 / s
    for n in range(7, 0, -1):
        term = math.exp(-n * (n + 1) * c)
        x += term
        dx += n * (n + 1) * term
    return (math.log(4.0 * math.pi / s) - 0.5 * c + 2.0 * math.log1p(x),
            (0.5 * c - 1.0 + 2.0 * c * dx / (1.0 + x)) / s)


def solve_tau(alpha: float, tol: float = 1e-12) -> TauSolution:
    """Solve theta_4(e^-s)^2 = 2 alpha for s = log tau, by Newton's method on
    L(s) = log(2 alpha).

    L is concave and increases from -inf to 0, so the root is unique and
    Newton's iterates left of it climb to it.  A step that leaves the bracket
    that the signs of L - log(2 alpha) have set is replaced by its midpoint;
    the iteration stops when an iterate repeats, within 3 ulps of the root
    (tests/test_blaschke.py checks it against a 50-digit root).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise OutOfRange(f"solve_tau requires alpha in (0, 1/2), got {alpha}")
    if not tol > 0:
        raise OutOfRange(f"solve_tau requires tol > 0, got {tol}")
    target = math.log(2.0 * alpha)
    lo, hi, s = 0.0, math.inf, 1.0
    seen = set()
    while s not in seen:
        seen.add(s)
        value, slope = log_multiplier(s)
        lo, hi = (s, hi) if value < target else (lo, s)
        step = s - (value - target) / slope
        s = step if lo <= step <= hi else 0.5 * (lo + hi)
    residual = abs(math.exp(log_multiplier(s)[0]) - 2.0 * alpha)
    if residual > tol:
        raise OutOfRange(f"Newton residual {residual:.3g} exceeds requested tol {tol:.3g}")
    return TauSolution(alpha=alpha, tau=math.exp(s), s=s, residual=residual)


def _saturation_horizon(s: float) -> int:
    """Largest n with tanh(n s / 2) < 1 in double precision.

    Beyond it the factors are numerically indistinguishable from 1 (the tail
    bound at the horizon is ~1e-14 even at a distance of 1e-3 from +-1), so
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
    factors past it are exactly 1, so no product uses more terms.

    A product is also the circle map of kind ``BLASCHKE``: circle_dynamics
    iterates it beside the map_zoo MapSpecs of the circle kinds.
    """

    kind = BLASCHKE  # a class attribute, not a field

    alpha: float
    tau: float
    s: float
    zeros: np.ndarray

    @classmethod
    def from_alpha(cls, alpha: float) -> "BlaschkeProduct":
        ts = solve_tau(alpha)
        zeros = np.tanh(np.arange(1, _saturation_horizon(ts.s) + 1) * (ts.s / 2.0))
        return cls(alpha=ts.alpha, tau=ts.tau, s=ts.s, zeros=zeros)

    @property
    def horizon(self) -> int:
        """The saturation horizon: no product uses more terms."""
        return self.zeros.size

    @cached_property
    def zeros_squared(self) -> np.ndarray:
        """a_n^2 for n = 1..horizon, the factor coefficients of the product."""
        return self.zeros * self.zeros

    @cached_property
    def theta(self) -> "_ThetaTables":
        """The tables of both evaluators, checked against the product when
        first used."""
        return _certified_tables(self)


def required_terms(B: BlaschkeProduct, z, target_err: float):
    """Product terms that bound the truncation error below target_err at z,
    at most the saturation horizon: the length of the product that checks
    the theta tables.  Scalar z gives an int; an array gives an int array.
    """
    if not target_err > 0:
        raise OutOfRange(f"target_err must be > 0, got {target_err}")
    z_arr = np.asarray(z, dtype=np.complex128)
    w = np.abs(1.0 - z_arr * z_arr)
    u = np.maximum(np.abs(1.0 + z_arr * z_arr), 1e-300)
    # past n0 the factor denominators are bounded below by w/2
    n0 = np.ceil(np.log(8.0 / w) / B.s)
    geom = np.ceil(np.log(16.0 * u / (w * (1.0 - 1.0 / B.tau) * target_err)) / B.s)
    n = np.minimum(np.maximum(np.maximum(n0, geom), 1.0), B.horizon).astype(np.int64)
    return n if z_arr.ndim else int(n)


def derivative_at_zero(B: BlaschkeProduct) -> float:
    """B'(0) = prod a_n^2 = theta_4(e^-s)^2, from the theta series: 2*alpha
    up to the tau-solve residual."""
    return math.exp(log_multiplier(B.s)[0])


# ---------------------------------------------------------------------------
# The theta quotient

# Below this s the series of T cancels by more than two digits, and the
# first correction to the leading term of its modular transform,
# exp(-pi^2/s), is below 2^-57: that term alone is then used.
_MODULAR_S = math.pi ** 2 / 40.0
# series terms are kept down to this size relative to the leading ones
_SERIES_CUT = 60.0 * math.log(2.0)
# |u| or |y| outside [_TINY, inf) is exactly 0, inf or nan: the refused points
_TINY = 5e-324
# fixed angles, at least 1 from +-1, at which the tables are checked against
# the product
_CERTIFY_AT = (1.0, 1.4, 1.8, 2.1, 4.3, 4.7, 5.2)
_CERTIFY_TOL = 1e-12


def _tau_powers(s: float, n) -> np.ndarray:
    """tau^-n = exp(-n s) for integers n (an array), to a few ulp at any n.

    s is split into a 26-bit head and its tail, so that both products with n
    are exact and only the two exponentials round.
    """
    c = s * 134217729.0  # 2^27 + 1
    head = c - (c - s)
    n = np.asarray(n, dtype=np.float64)
    return np.exp(-n * head) * np.exp(-n * (s - head))


class _ThetaTables:
    """The tables of both evaluators for one product, built once.

    ``edges`` = [_TINY, tau^(k+1/2) for k = k0..k1, inf]: the index
    i = searchsorted(edges, |u|, "right") selects the deck power k0 - 1 + i,
    and i = 0 or len(edges) marks a refused u.  ``pre[i] * post[i]`` is
    tau^-k; ``pre`` is 1 except near the ends of double range, where tau^-k
    itself is not representable.  ``half[i]`` is k*pi reduced to 0 or pi.

    T(ix) at the reduced point x is, up to a factor c x^(2j), c > 0, that
    T(-ix) shares, P(x^2) + i Q(x^2)/x with real polynomials P and Q (the
    even and odd powers of the series on both sides).  ``top`` holds their
    leading coefficients and ``horner`` the rest as (P_j, Q_j) pairs,
    highest degree first.  For small s,
    ``modular`` is pi/(2 s), the slope of arg T in log x, and the series is
    not used.  ``terms`` counts the series terms summed, 1 for the modular
    transform's leading term.  The lists are the arrays' float copies for
    circle_orbit.
    """

    def __init__(self, s: float):
        ks = np.arange(math.floor(-745.2 / s) - 2, math.ceil(709.8 / s) + 3)
        with np.errstate(over="ignore", under="ignore"):
            e = np.exp((ks + 0.5) * s)
        kept = (e > _TINY) & (e < math.inf)
        self.edges = np.concatenate(([_TINY], e[kept], [math.inf]))
        k = np.arange(self.edges.size) + (ks[kept][0] - 1)
        # split tau^-k in two where one power would leave double range
        k1 = np.where(np.abs(k * s) > 600.0, k // 2, 0)
        self.pre, self.post = _tau_powers(s, k1), _tau_powers(s, k - k1)
        self.half = np.where(k % 2 == 1, math.pi, 0.0)
        self.odd = (k % 2 == 1).tolist()
        self.modular = math.pi / (2.0 * s) if s < _MODULAR_S else 0.0
        # term m of T at |x| <= tau^(1/2) is at most tau^(-m(m-2)/2) for
        # m > 0 and tau^(-m^2/2) for m < 0
        top = 0
        while s * (top + 1) * (top - 1) / 2.0 < _SERIES_CUT:
            top += 1
        bottom = 0
        while s * (bottom + 1) ** 2 / 2.0 < _SERIES_CUT:
            bottom += 1
        top -= top % 2
        # P_j is the coefficient of x^(top - 2j) in T, Q_j of x^(top + 1 - 2j),
        # each with its power of -i
        even = np.arange(top, -bottom - 1, -2)
        odd = np.arange(top + 1, -bottom - 1, -2)
        p = np.where(even // 2 % 2 == 0, 1.0, -1.0) * _tau_powers(s, even * (even - 1) // 2)
        q = np.where((odd - 1) // 2 % 2 == 0, -1.0, 1.0) * _tau_powers(s, odd * (odd - 1) // 2)
        size = max(p.size, q.size)  # pad the shorter with zeros at the top
        p = np.concatenate((p, np.zeros(size - p.size)))[::-1].tolist()
        q = np.concatenate((q, np.zeros(size - q.size)))[::-1].tolist()
        self.top = (p[0], q[0])
        self.horner = tuple(zip(p[1:], q[1:]))
        self.terms = 1 if self.modular else even.size + odd.size
        self.edge_list, self.pre_list, self.post_list = (
            a.tolist() for a in (self.edges, self.pre, self.post))


def _singular() -> TooCloseToSingularity:
    return TooCloseToSingularity(
        "the boundary map is singular at +-1: theta = 0 (mod 2 pi), an angle "
        "below ~1.1e-308 above it (cot(theta/2) overflows), or an orbit that "
        "lands on +-1 in floating point")


def singular_angle(theta: float) -> bool:
    """True for the angles the circle evaluator refuses: those where
    u = cot(theta/2) is infinite in floating point, theta = 0 (mod 2 pi) and
    0 < theta < ~1.1e-308 (mod 2 pi)."""
    h = 0.5 * (theta % TWO_PI)
    return math.sin(h) == 0.0 or math.isinf(math.cos(h) / math.sin(h))


def _theta_parts(t: _ThetaTables, x):
    """(Re T, Im T) at the reduced point x, a float or an array, up to one
    positive factor."""
    if t.modular:
        phi = np.sign(x) * (t.modular * np.log(np.abs(x)) - 0.25 * math.pi)
        return np.cos(phi), np.sin(phi)
    z = x * x
    p, q = t.top
    for a, b in t.horner:
        p = p * z + a
        q = q * z + b
    return p, q / x


def _circle_angles(t: _ThetaTables, thetas) -> np.ndarray:
    th = np.asarray(thetas, dtype=np.float64)
    h = 0.5 * (th % TWO_PI)
    with np.errstate(divide="ignore", over="ignore"):
        u = np.cos(h) / np.sin(h)
    i = np.searchsorted(t.edges, np.abs(u), side="right")
    if not np.all((i > 0) & (i < t.edges.size)):
        raise _singular()
    re, im = _theta_parts(t, (u * t.pre[i]) * t.post[i])
    return (-2.0 * np.arctan2(im, re) + t.half[i]) % TWO_PI


def _certified_tables(B: BlaschkeProduct) -> _ThetaTables:
    """The tables of B, checked against the product at _CERTIFY_AT, where
    its truncation is bounded by 1e-13."""
    t = _ThetaTables(B.s)
    th = np.array(_CERTIFY_AT)
    z = np.exp(1j * th)
    z2 = z * z
    product = z.copy()
    for a2 in B.zeros_squared[:np.max(required_terms(B, z, 1e-13))]:
        product *= (a2 - z2) / (1.0 - a2 * z2)
    gap = np.abs((_circle_angles(t, th) - np.angle(product) + math.pi) % TWO_PI - math.pi)
    if not np.all(gap <= _CERTIFY_TOL):
        raise FatouLabError(
            f"theta quotient disagrees with the product by {np.max(gap):.3g} "
            f"at alpha={B.alpha}")
    return t


def eval_blaschke(B: BlaschkeProduct, z):
    """B(z) on the closed unit disk, for a point or an array of points.

    y = -i*zeta is deck-reduced like u on the circle, to x = y tau^-k, and
    B = (-1)^k (x P - i Q)/(x P + i Q) with the tables' P and Q at x^2, or
    (-1)^k 2 exp(-pi^2/(2 s)) sin(pi log(i x) / s) for small s.  It is all
    real arithmetic, so a point gives the same bits alone as in an array.
    Near +-1, |B'| magnifies in the modulus how far rounding puts a float
    e^(i theta) off the circle: ~1e-8 at theta = 1e-8, alpha 0.1.  Raises
    OutOfRange for |z| > 1 + 1e-12 and TooCloseToSingularity where y is 0
    or infinite: at z = +-1 and within ~1e-308 of +1.
    """
    z_in = np.asarray(z, dtype=np.complex128)
    z_arr = np.atleast_1d(z_in)
    if np.any(np.abs(z_arr) > 1.0 + 1e-12):
        raise OutOfRange("eval_blaschke requires |z| <= 1")
    t = B.theta
    a, b = z_arr.real, z_arr.imag
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # y = (2 b - i (1 - |z|^2)) / |1 - z|^2, with 1 - z scaled by m so
        # that nothing underflows next to +1
        m = np.maximum(np.abs(1.0 - a), np.abs(b))
        c, d = (1.0 - a) / m, b / m
        n = c * c + d * d
        yr = (2.0 * d / m) / n
        yi = (d * d - c * ((1.0 + a) / m)) / n
        i = np.searchsorted(t.edges, np.hypot(yr, yi), side="right")
    if not np.all((i > 0) & (i < t.edges.size)):
        raise TooCloseToSingularity("B is singular at z = +-1 (and y overflows "
                                    "within ~1e-308 of +1)")
    xr, xi = (yr * t.pre[i]) * t.post[i], (yi * t.pre[i]) * t.post[i]
    if t.modular:
        # sin(re + i im) with 2 exp(-pi^2/(2 s)) cosh(im) and sinh(im) written
        # through exp(+-im - pi^2/(2 s)), which cannot overflow
        re = 2.0 * t.modular * np.log(np.hypot(xr, xi))
        im = 2.0 * t.modular * np.arctan2(xr, -xi)
        up, down = np.exp(im - math.pi * t.modular), np.exp(-im - math.pi * t.modular)
        br, bi = np.sin(re) * (up + down), np.cos(re) * (up - down)
    else:
        # P and Q at w = x^2 by complex Horner recurrences in real parts
        wr, wi = xr * xr - xi * xi, 2.0 * xr * xi
        (p_re, q_re), p_im, q_im = t.top, 0.0, 0.0
        for p, q in t.horner:
            p_re, p_im = p_re * wr - p_im * wi + p, p_re * wi + p_im * wr
            q_re, q_im = q_re * wr - q_im * wi + q, q_re * wi + q_im * wr
        sr, si = xr * p_re - xi * p_im, xr * p_im + xi * p_re
        nr, ni, dr, di = sr + q_im, si - q_re, sr - q_im, si + q_re
        dd = dr * dr + di * di
        br, bi = (nr * dr + ni * di) / dd, (ni * dr - nr * di) / dd
    sign = np.where(t.half[i], -1.0, 1.0)
    out = np.empty(z_arr.shape, dtype=np.complex128)
    out.real, out.imag = sign * br, sign * bi
    # the zero of B at 0: the series' two halves cancel there only to rounding
    out[z_arr == 0] = 0.0
    return complex(out[0]) if z_in.ndim == 0 else out


def circle_eval_many(B: BlaschkeProduct, thetas) -> np.ndarray:
    """Boundary map angles arg B(e^(i theta)), reduced to [0, 2*pi), for an
    array of angles, 0-d included.

    u = cos(theta/2)/sin(theta/2) is deck-reduced and T is summed there (see
    the module docstring).  Raises TooCloseToSingularity where
    singular_angle(theta) holds.
    """
    return _circle_angles(B.theta, thetas)


def circle_orbit(B: BlaschkeProduct, theta0: float, n: int) -> np.ndarray:
    """Orbit [B(theta0), ..., B^n(theta0)] of the boundary map, in [0, 2*pi).

    The orbit runs in u = cot(theta/2): after the deck reduction the next u
    is -Re T / Im T for even k and Im T / Re T for odd k, with no
    trigonometry, and the angles come at the end from one 2*arctan2(1, u)
    over the orbit array.  Each step rounds differently from
    circle_eval_many's, so the orbit is not repeated circle_eval_many bit for
    bit.  Raises TooCloseToSingularity where singular_angle(theta0) holds and
    when u lands on 0 or +-inf (an underflow or overflow included).
    """
    t = B.theta
    edges, pre, post, odd = t.edge_list, t.pre_list, t.post_list, t.odd
    top, horner, modular = t.top, t.horner, t.modular
    last = len(edges)
    out = np.empty(n)
    h = 0.5 * (theta0 % TWO_PI)
    try:
        u = math.cos(h) / math.sin(h)
        with np.errstate(divide="raise"):  # the modular parts are numpy floats
            for j in range(n):
                i = bisect_right(edges, abs(u))
                if not 0 < i < last:
                    raise _singular()
                x = (u * pre[i]) * post[i]
                if modular:
                    re, im = _theta_parts(t, x)
                else:  # _theta_parts inlined: the call would cost a third
                    z = x * x
                    re, im = top
                    for a, b in horner:
                        re = re * z + a
                        im = im * z + b
                    im /= x
                u = im / re if odd[i] else -re / im
                out[j] = u
    except (ZeroDivisionError, FloatingPointError):
        raise _singular() from None
    if not 0.0 < abs(u) < math.inf:
        raise _singular()
    np.arctan2(1.0, out, out=out)
    out *= 2.0
    # a u below about -1e16 doubles to 2 pi itself
    return np.remainder(out, TWO_PI, out=out)
