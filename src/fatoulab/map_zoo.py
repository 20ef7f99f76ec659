"""Catalogue of the concrete holomorphic maps used across the package.

Provides map specs with their one JSON parser, complex evaluation (one
formula per kind in ``evaluate_many``, for arrays and Python complex
numbers; ``evaluate`` is the one-point form of ``evaluate_many``, with the
exponent-cap check), closed-form derivatives, certified trapping disks
around the attracting fixed points, and a deterministic scalar bisection
root-finder.  Orbits of the plane maps are classified by
``renderer.classify_points``.  The star of the zoo is the punctured-plane
map

    f(z) = exp(alpha * (z - 1/z)),    alpha in (0, 1/2),

whose unit circle is invariant and which is semiconjugate to
F(z) = 2*alpha*sin(z) through z -> exp(i z).  Both share the fixed-point
multiplier 2*alpha (at 1 and at 0 respectively).

All operations here are pure functions of their arguments; nothing in this
module draws random numbers or mutates shared state.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ExponentOverflow,
    NoSignChange,
    OutOfRange,
    UnsupportedMap,
)

# Exponential-type maps reject exponents beyond this real part instead of
# silently producing inf/0; near the double overflow threshold exp(709.78).
EXP_CAP = 700.0


# Map kinds, with their JSON names.
EXP_BAKER = "exp_baker"
SINE_MODEL = "sine_model"
POWER = "power"
ROTATION = "rotation"
MOBIUS = "mobius"
FINITE_BLASCHKE = "finite_blaschke"
KEEN = "keen"
MCMULLEN = "mcmullen"


@dataclass(frozen=True)
class MapSpec:
    """Tagged description of one map: kind and parameters."""

    kind: str
    params: tuple  # kind-specific parameter tuple, see factory functions


def exp_baker(alpha: float) -> MapSpec:
    """f(z) = exp(alpha*(z - 1/z)) on the punctured plane, alpha in (0, 1/2)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise OutOfRange(f"exp_baker requires alpha in (0, 1/2), got {alpha}")
    return MapSpec(EXP_BAKER, (alpha,))


def sine_model(alpha: float) -> MapSpec:
    """F(z) = 2*alpha*sin(z), alpha in (0, 1/2)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise OutOfRange(f"sine_model requires alpha in (0, 1/2), got {alpha}")
    return MapSpec(SINE_MODEL, (alpha,))


def power_map(d: int) -> MapSpec:
    """z -> z**d for integer d >= 1."""
    d = integer(d, "power_map d")
    if d < 1:
        raise OutOfRange(f"power_map requires d >= 1, got {d}")
    return MapSpec(POWER, (d,))


def rotation(theta: float) -> MapSpec:
    """z -> exp(i*theta) * z."""
    return MapSpec(ROTATION, (float(theta),))


def mobius(a: complex, b: complex, c: complex, d: complex) -> MapSpec:
    """z -> (a z + b) / (c z + d) with ad - bc != 0."""
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    if a * d - b * c == 0:
        raise OutOfRange("mobius requires ad - bc != 0")
    return MapSpec(MOBIUS, (a, b, c, d))


def identity_mobius() -> MapSpec:
    return mobius(1.0, 0.0, 0.0, 1.0)


def finite_blaschke(zeros: Sequence[complex], rotation_factor: complex = 1.0) -> MapSpec:
    """Finite Blaschke product rot * prod (z - a_k)/(1 - conj(a_k) z)."""
    zs = tuple(complex(z) for z in zeros)
    for z in zs:
        if abs(z) >= 1.0:
            raise OutOfRange(f"finite_blaschke zeros must have modulus < 1, got {z}")
    rot = complex(rotation_factor)
    if abs(abs(rot) - 1.0) > 1e-12:
        raise OutOfRange(f"finite_blaschke rotation factor must be unimodular, got {rot}")
    return MapSpec(FINITE_BLASCHKE, (zs, rot))


def keen(alpha: float, lam: float) -> MapSpec:
    """f(z) = z * exp(alpha*(z + 1/z) + lambda) on the punctured plane."""
    return MapSpec(KEEN, (float(alpha), float(lam)))


def mcmullen(m: int, l: int, c: complex) -> MapSpec:
    """f(z) = z**m + c / z**l, integers m, l >= 1, c != 0."""
    m, l = integer(m, "mcmullen m"), integer(l, "mcmullen l")
    if m < 1 or l < 1:
        raise OutOfRange(f"mcmullen requires m, l >= 1, got {m}, {l}")
    c = complex(c)
    if c == 0:
        raise OutOfRange("mcmullen requires c != 0")
    return MapSpec(MCMULLEN, (m, l, c))


# ---------------------------------------------------------------------------
# JSON parsing


@contextmanager
def malformed_json(what: str):
    """Report a missing or ill-typed key of parsed JSON input as OutOfRange.

    ``what`` names the input in the message, for example "map JSON".
    """
    try:
        yield
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise OutOfRange(f"malformed {what}: {type(exc).__name__} {exc}") from None


def integer(value, name: str) -> int:
    """``value`` as an int: an integer, or a float with no fractional part.
    A bool, a string, a fraction or a non-finite number raises OutOfRange,
    where ``int()`` would truncate 10.7 to 10 and read true as 1 and "12"
    as 12.  ``name`` names the value in the message."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise OutOfRange(f"{name} must be an integer, got {value!r}")


def real(value, name: str) -> float:
    """``value`` as a finite float.  A bool, a string or a non-finite number
    raises OutOfRange, where ``float()`` would read true as 1.0 and "8" as
    8.0.  ``name`` names the value in the message."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        x = float(value)
        if math.isfinite(x):
            return x
    raise OutOfRange(f"{name} must be a finite real number, got {value!r}")


def spec_from_dict(obj: dict) -> MapSpec:
    """MapSpec from its JSON form.

    The parameters sit under ``"params"`` or, in the flat spelling, beside
    ``"kind"``.  An unknown kind, like a missing or ill-typed key, raises
    OutOfRange.
    """
    with malformed_json("map JSON"):
        kind = obj["kind"]
        p = obj.get("params", obj)
        if kind == EXP_BAKER:
            return exp_baker(real(p["alpha"], "alpha"))
        if kind == SINE_MODEL:
            return sine_model(real(p["alpha"], "alpha"))
        if kind == POWER:
            return power_map(p["d"])
        if kind == ROTATION:
            return rotation(real(p["theta"], "theta"))
        if kind == MOBIUS:
            return mobius(*(complex_value(p[k], k) for k in "abcd"))
        if kind == FINITE_BLASCHKE:
            return finite_blaschke([complex_value(z, "zero") for z in p["zeros"]],
                                   complex_value(p.get("rotation", 1.0), "rotation"))
        if kind == KEEN:
            return keen(real(p["alpha"], "alpha"), real(p["lambda"], "lambda"))
        if kind == MCMULLEN:
            return mcmullen(p["m"], p["l"], complex_value(p["c"], "c"))
    raise OutOfRange(f"unknown map kind {kind!r}")


def complex_value(value, name: str) -> complex:
    """A complex number from JSON: a real number, or a pair [re, im] of
    them, each read by ``real``; a shorter list is malformed JSON."""
    if isinstance(value, (list, tuple)):
        return complex(real(value[0], name), real(value[1], name))
    return complex(real(value, name))


# ---------------------------------------------------------------------------
# Evaluation


def _exponent(spec: MapSpec, z):
    """The exponent of the exponential-type kinds (exp_baker, keen)."""
    if spec.kind == EXP_BAKER:
        (alpha,) = spec.params
        return alpha * z - alpha / z
    alpha, lam = spec.params
    return alpha * (z + 1.0 / z) + lam


def _check_exponent(w: complex, what: str) -> complex:
    if w.real > EXP_CAP:
        raise ExponentOverflow(f"{what}: exponent real part {w.real:.3g} above cap")
    if w.real < -EXP_CAP:
        raise ExponentOverflow(f"{what}: exponent real part {w.real:.3g} below cap")
    return w


def evaluate_many(spec: MapSpec, z):
    """The map's formula at z, elementwise; z is a complex array or a Python complex.

    No exponent-cap check: arrays follow numpy's inf/nan rules, and
    ``evaluate`` adds the check for one point.  Only operators and ufuncs
    are used, so a Python complex keeps CPython's complex arithmetic, which
    rounds some quotients and products differently from numpy's array
    kernels.
    """
    k = spec.kind
    if k == EXP_BAKER:
        return np.exp(_exponent(spec, z))
    if k == SINE_MODEL:
        (alpha,) = spec.params
        return 2.0 * alpha * np.sin(z)
    if k == POWER:
        (d,) = spec.params
        return z ** d
    if k == ROTATION:
        (theta,) = spec.params
        return np.exp(1j * theta) * z
    if k == MOBIUS:
        a, b, c, d = spec.params
        return (a * z + b) / (c * z + d)
    if k == FINITE_BLASCHKE:
        zs, rot = spec.params
        # in-place products: numpy's out-of-place complex product rounds
        # differently on short arrays, which would move circle-map orbits
        # (a Python complex accumulates in a 0-d array, which matched
        # CPython's product bit for bit on 2e5 sampled points)
        out = np.full(np.shape(z), rot)
        for a in zs:
            out *= (z - a) / (1.0 - a.conjugate() * z)
        return out
    if k == KEEN:
        return z * np.exp(_exponent(spec, z))
    if k == MCMULLEN:
        m, l, c = spec.params
        return z ** m + c / z ** l
    raise UnsupportedMap(f"unknown map kind {k!r}")


def evaluate(spec: MapSpec, z) -> complex:
    """The one-point form of ``evaluate_many``, with the exponent-cap check.

    Raises ExponentOverflow when an exponential-type map (exp_baker, keen,
    sine_model) leaves the safe exponent range.  At a pole or at the
    essential singularity 0 of exp_baker and keen, CPython's complex
    division raises ZeroDivisionError.
    """
    v = complex(z)
    k = spec.kind
    if k in (EXP_BAKER, KEEN):
        _check_exponent(_exponent(spec, v), k)
    elif k == SINE_MODEL and abs(v.imag) > EXP_CAP:
        raise ExponentOverflow(f"{k}: |Im z| = {abs(v.imag):.3g} above cap")
    return complex(evaluate_many(spec, v))


def derivative(spec: MapSpec, z) -> complex:
    """Analytic derivative at a finite point, in closed form."""
    v = complex(z)
    k = spec.kind

    if k == EXP_BAKER:
        (alpha,) = spec.params
        return evaluate(spec, v) * alpha * (1.0 + 1.0 / (v * v))
    if k == SINE_MODEL:
        (alpha,) = spec.params
        if abs(v.imag) > EXP_CAP:
            raise ExponentOverflow(f"{k}: |Im z| above cap")
        return 2.0 * alpha * cmath.cos(v)
    if k == POWER:
        (d,) = spec.params
        return d * v ** (d - 1)
    if k == ROTATION:
        (theta,) = spec.params
        return cmath.exp(1j * theta)
    if k == MOBIUS:
        a, b, c, d = spec.params
        den = c * v + d
        return (a * d - b * c) / (den * den)
    if k == FINITE_BLASCHKE:
        zs, rot = spec.params
        # product rule; each factor's derivative is (1-|a|^2)/(1-conj(a) z)^2
        facs = [(v - a) / (1.0 - a.conjugate() * v) for a in zs]
        dfacs = [
            (1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * v) ** 2 for a in zs
        ]
        total = 0.0 + 0.0j
        for i in range(len(zs)):
            term = dfacs[i]
            for j in range(len(zs)):
                if j != i:
                    term *= facs[j]
            total += term
        return rot * total
    if k == KEEN:
        alpha, _lam = spec.params
        e = cmath.exp(_check_exponent(_exponent(spec, v), k))
        return e * (1.0 + alpha * v - alpha / v)
    if k == MCMULLEN:
        m, l, c = spec.params
        return m * v ** (m - 1) - l * c / v ** (l + 1)
    raise UnsupportedMap(f"unknown map kind {k!r}")


# ---------------------------------------------------------------------------
# Trapping disks

# Each kind's attracting fixed point p, with multiplier 2*alpha; the largest
# trapping radius it may take; a closed-form bound on |f(p + e) - p| over
# |e| <= r; and one on |f'| there.  For exp_baker, f(1 + e) = exp(w) with
# |w| = |alpha*e*(2 + e)/(1 + e)| <= |alpha| r (2 + r)/(1 - r), and
# f' = f*alpha*(1 + 1/z**2); for sine_model, |sin e| <= sinh|e| and
# |cos e| <= cosh|e|.  The cap r <= 1/2 keeps exp_baker's disk inside
# 1/2 <= |z| <= 3/2.
_FIXED_POINTS = {
    EXP_BAKER: (1.0 + 0.0j, 0.5,
                lambda a, r: math.expm1(a * r * (2.0 + r) / (1.0 - r)),
                lambda a, r: (a * (1.0 + (1.0 - r) ** -2)
                              * math.exp(a * r * (2.0 + r) / (1.0 - r)))),
    SINE_MODEL: (0.0j, 1.0, lambda a, r: 2.0 * a * math.sinh(r),
                 lambda a, r: 2.0 * a * math.cosh(r)),
}
# the sampled bound takes _TRAP_SAMPLES equally spaced points of the circle;
# _TRAP_ROUNDING covers the rounding of either bound, a few operations on
# numbers of modulus below 4, and _TRAP_TOL is the width to which bisection
# finds the radius
_TRAP_SAMPLES = 1024
_TRAP_ROUNDING = 1e-13
_TRAP_TOL = 1e-9


def trapping_disk(spec: MapSpec):
    """(p, r_trap): the attracting fixed point p of exp_baker or
    sine_model and its certified trapping radius; None for other kinds.

    The certificate at radius r bounds sup |f(p + e) - p| over |e| = r,
    which by the maximum modulus principle is the sup over the closed disk.
    The sampled bound is the largest value at N = ``_TRAP_SAMPLES`` equally
    spaced e, at the spec's own alpha (complex or negative too), plus
    (pi*r/N) times the kind's bound on |f'| (no point of the circle is
    further along it from a sample).  The certificate takes the smaller of
    it and the kind's closed-form bound, plus ``_TRAP_ROUNDING``; the
    closed form is the exact sup for sine_model, and the sharper bound for
    exp_baker only near 2|alpha| = 1, where the sampled bound's slack of
    order (pi/N)*r exceeds the margin (1 - rho)*r.  With rho = (1 + 2|alpha|)/2,
    it holds when that is at most rho*r: then f maps the disk into the one
    of radius rho*r, and by the Earle-Hamilton fixed-point theorem (1970)
    every orbit that enters it tends to p.  The true sup divided by r grows
    with r from 2|alpha| (the maximum modulus principle for
    (f(p + e) - p)/e), so r_trap is the kind's cap when the certificate
    holds there and otherwise the radius at which bisection finds the bound
    crossing rho*r; the certificate is checked again at the radius
    returned.  r_trap is 0 when 2|alpha| >= 1, and when
    (1 - rho)*r_trap < 1e-12, so that per-step rounding (~1e-15) can never
    carry a floating-point orbit out.
    """
    if spec.kind not in _FIXED_POINTS:
        return None
    point, cap, bound, slope = _FIXED_POINTS[spec.kind]
    a = abs(spec.params[0])
    rho = 0.5 + a
    if rho >= 1.0:
        return point, 0.0
    turns = np.exp(2j * math.pi * np.arange(_TRAP_SAMPLES) / _TRAP_SAMPLES)

    def excess(r):
        sampled = np.abs(evaluate_many(spec, point + r * turns) - point).max()
        gap = math.pi * r / _TRAP_SAMPLES * slope(a, r)
        return min(float(sampled) + gap, bound(a, r)) + _TRAP_ROUNDING - rho * r

    low = 1e-12 / (1.0 - rho)
    if not (low < cap and excess(low) < 0.0):
        return point, 0.0
    # bisect returns the midpoint of its last bracket; a tolerance below it
    # lies under the bracket's certified end
    trap = cap if excess(cap) <= 0.0 else bisect(excess, low, cap, _TRAP_TOL) - _TRAP_TOL
    return point, trap if trap >= low and excess(trap) <= 0.0 else 0.0


# ---------------------------------------------------------------------------
# Scalar root finding


def bisect(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Deterministic bisection on [a, b] down to bracket width <= tol.

    Requires a strict sign change: f(a) * f(b) < 0.
    """
    if not b > a:
        raise OutOfRange(f"bisect requires b > a, got [{a}, {b}]")
    if not tol > 0:
        raise OutOfRange(f"bisect requires tol > 0, got {tol}")
    fa, fb = f(a), f(b)
    if not (fa < 0 < fb or fb < 0 < fa):
        raise NoSignChange(f"f({a}) = {fa} and f({b}) = {fb} do not straddle 0")
    while (b - a) > tol:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break  # bracket at floating-point resolution
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0) == (fm < 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)
