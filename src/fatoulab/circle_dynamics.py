"""Iteration and ergodic statistics of boundary maps on the unit circle.

Covers rotations, power maps theta -> d*theta, Mobius boundary maps, and
boundary restrictions of Blaschke products (finite ones and the infinite
product of :mod:`fatoulab.blaschke`).  A circle map is a map_zoo MapSpec of
one of the circle kinds or a ``blaschke.BlaschkeProduct``; both carry a
``kind``.  The product's boundary map is the theta quotient of
:mod:`fatoulab.blaschke`, which refuses only theta = 0 and
0 < theta < ~1.1e-308 (mod 2 pi), where cot(theta/2) overflows, and orbits
that land exactly on +-1 (``TooCloseToSingularity``).  ``apply_map`` maps
an array of angles, a scalar as a one-element array; ``iterate`` steps a
Blaschke orbit in ``blaschke.circle_orbit`` and a rotation or power orbit on
Python floats (``_angle_step``, which apply_map steps arrays with).

Measure-theoretic notions (exactness, ergodicity) are not computable from
finite data; this module provides the standard observable proxies instead:
star discrepancy of orbits, arc-spreading under forward iteration, invariance
of Lebesgue measure through a Kolmogorov-Smirnov statistic, and the
divergence of sum_n (1 - |g_n'(0)|) for composition sequences.

The statistics work in ``rng.chunks`` of ``rng.CHUNK`` samples: besides its
input and one n-sized array of its own, each holds a fixed amount of memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import BLASCHKE, _lazy_import, map_zoo
from .errors import (
    EmptyInput,
    OriginNotFixed,
    OutOfRange,
)
from .rng import chunks, uniform01

TWO_PI = 2.0 * math.pi

DEFAULT_GRID = 2 ** 14 + 1
DEFAULT_CELLS = 2 ** 14  # reference-grid resolution for cover measurement

_bl = _lazy_import(f"{__package__}.blaschke")  # executed by a Blaschke map alone
# a circle map: a MapSpec of one of _CIRCLE_KINDS, or the infinite product
BoundaryMap = Union[map_zoo.MapSpec, "_bl.BlaschkeProduct"]


def rotation_map(theta: float) -> map_zoo.MapSpec:
    """Rotation by theta, reduced to [0, 2*pi)."""
    return map_zoo.rotation(float(theta) % TWO_PI)


def mobius_boundary_map(a, b, c, d) -> map_zoo.MapSpec:
    """Boundary restriction of a Mobius disk automorphism."""
    spec = map_zoo.mobius(a, b, c, d)
    for probe in (1.0, 1j, -1.0, np.exp(0.7j)):
        try:
            val = map_zoo.evaluate(spec, probe)
        except ZeroDivisionError:
            raise OutOfRange(f"Mobius map has its pole at the probe {probe}") from None
        if abs(abs(val) - 1.0) > 1e-9:
            raise OutOfRange("Mobius coefficients do not preserve the unit circle")
    return spec


# map_zoo kinds that restrict to maps of the circle
_CIRCLE_KINDS = frozenset((map_zoo.ROTATION, map_zoo.POWER, map_zoo.MOBIUS,
                           map_zoo.FINITE_BLASCHKE))


def circle_map_from_dict(obj: dict) -> BoundaryMap:
    """Circle map from JSON: a map of a circle kind in either spelling that
    ``map_zoo.spec_from_dict`` reads, or ``{"kind": "blaschke", "alpha": a}``."""
    with map_zoo.malformed_json("map JSON"):
        kind = obj["kind"]
        if kind == BLASCHKE:
            return _bl.BlaschkeProduct.from_alpha(
                map_zoo.real(obj.get("params", obj)["alpha"], "alpha"))
        if kind not in _CIRCLE_KINDS:
            raise OutOfRange(f"unknown circle map kind {kind!r}")
        spec = map_zoo.spec_from_dict(obj)
        if kind == map_zoo.ROTATION:
            return rotation_map(*spec.params)
        if kind == map_zoo.MOBIUS:
            return mobius_boundary_map(*spec.params)
        return spec


def fixes_origin(cmap: BoundaryMap) -> bool:
    """Whether the disk extension of the boundary map fixes 0."""
    if cmap.kind == BLASCHKE:
        return True
    origin = np.zeros(1, dtype=np.complex128)
    # a Mobius map with its pole at 0 gives inf or nan here, not 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return bool(map_zoo.evaluate_many(cmap, origin)[0] == 0)


def derivative_at_zero_modulus(cmap: BoundaryMap) -> float:
    """|g'(0)| of the disk extension, for maps fixing the origin."""
    if not fixes_origin(cmap):
        raise OriginNotFixed(f"{cmap.kind} map does not fix the disk origin")
    if cmap.kind == BLASCHKE:
        return _bl.derivative_at_zero(cmap)
    return abs(map_zoo.derivative(cmap, 0j))


# kinds whose orbits iterate advances with _angle_step, on Python floats
# with the bits of the array path; Mobius and finite Blaschke maps would need
# CPython's complex division, which rounds differently from numpy's
_SCALAR_KINDS = frozenset((map_zoo.ROTATION, map_zoo.POWER))


def _angle_step(cmap: BoundaryMap, th):
    """The image of th, a float or an array, under a rotation or a power
    map: iterate's step on floats, apply_map's on arrays.  With the angle
    of rotation_map, in [0, 2 pi), every % after the first has non-negative
    operands, where it is the exact C fmod in CPython and numpy alike;
    d*theta is exact for d = 2, so doubling orbits agree bit-for-bit with
    fmod(2^n theta, 2 pi)."""
    if cmap.kind == map_zoo.ROTATION:
        return (th % TWO_PI + cmap.params[0]) % TWO_PI
    return cmap.params[0] * (th % TWO_PI) % TWO_PI


def apply_map(cmap: BoundaryMap, thetas):
    """One application of the boundary map; angles reduced mod 2*pi.

    Scalar in, scalar out; array in, array out.  A scalar is mapped as a
    one-element array.  The Blaschke product raises TooCloseToSingularity
    where ``blaschke.singular_angle`` holds.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    k = cmap.kind
    if k == BLASCHKE:
        # unreduced: reducing here too would take -1e-20 to 2 pi, which
        # circle_eval_many reduces to the singular angle 0
        out = _bl.circle_eval_many(cmap, th)
    elif k in _SCALAR_KINDS:
        out = _angle_step(cmap, th)
    else:
        out = np.angle(map_zoo.evaluate_many(cmap, np.exp(1j * (th % TWO_PI)))) % TWO_PI
    return float(out[0]) if np.ndim(thetas) == 0 else out


def iterate(cmap: BoundaryMap, theta0: float, n: int) -> np.ndarray:
    """Orbit [g(theta0), g^2(theta0), ..., g^n(theta0)].

    For every kind but the Blaschke product the orbit is repeated apply_map,
    bit for bit.  The Blaschke orbit runs in u = cot(theta/2)
    (``blaschke.circle_orbit``): its steps round differently from
    apply_map's, so it agrees with repeated apply_map only to rounding at
    each step, which the map's expansion then grows.
    """
    if n < 1:
        raise OutOfRange(f"iterate requires n >= 1, got {n}")
    if cmap.kind == BLASCHKE:
        return _bl.circle_orbit(cmap, float(theta0), n)
    step = _angle_step if cmap.kind in _SCALAR_KINDS else apply_map
    out = np.empty(n, dtype=np.float64)
    th = float(theta0)
    for i in range(n):
        th = step(cmap, th)
        out[i] = th
    return out


def pommerenke_sum(maps: Sequence[BoundaryMap]) -> float:
    """sum over the list of (1 - |g'(0)|); all maps must fix the origin."""
    if not maps:
        raise EmptyInput("pommerenke_sum needs at least one map")
    return float(sum(1.0 - derivative_at_zero_modulus(g) for g in maps))


# ---------------------------------------------------------------------------
# Equidistribution statistics


def discrepancy(samples) -> float:
    """Star discrepancy of circle samples against normalized arc length.

    Exact sorted-sample formula on x_i = theta_i / (2 pi):
    D* = max_i max(i/N - x_(i), x_(i) - (i-1)/N).  This is also the
    Kolmogorov-Smirnov distance from the uniform law.  Holds one sorted copy
    of the samples.
    """
    th = np.array(samples, dtype=np.float64)
    if th.size == 0:
        raise EmptyInput("discrepancy of an empty sample is undefined")
    return _discrepancy_in_place(th)


def _discrepancy_in_place(x: np.ndarray) -> float:
    """discrepancy of the angles in x, which it reduces, sorts and scales in
    place; the two maxima are taken chunk by chunk, which is exact."""
    np.remainder(x, TWO_PI, out=x)
    x.sort()
    x /= TWO_PI
    n = x.size
    above = below = -np.inf
    for lo, hi in chunks(0, n):
        xb = x[lo:hi]
        i = np.arange(lo + 1, hi + 1)
        above = np.max(i / n - xb, initial=above)
        below = np.max(xb - (i - 1) / n, initial=below)
    return float(max(above, below))


def ks_critical(n: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value; hard-coded coefficients, no SciPy."""
    coeff = {0.01: 1.63, 0.05: 1.36}.get(level)
    if coeff is None:
        raise OutOfRange(f"only levels 0.01 and 0.05 are tabulated, got {level}")
    return coeff / math.sqrt(n)


def invariance_test(cmap: BoundaryMap, n_samples: int, seed: int) -> float:
    """KS distance between uniform and the one-step image of uniform samples.

    For maps whose disk extension fixes 0 and preserves Lebesgue measure the
    statistic sits at the 1/sqrt(n) noise floor.  Samples are drawn from
    per-index counter streams; a sample of exactly 0, where the Blaschke
    boundary map is singular, is redrawn for that map.

    The samples are drawn, mapped and sorted in one float64 array, in chunks
    of ``rng.CHUNK``; the result does not depend on the chunk width.
    """
    if not fixes_origin(cmap):
        raise OriginNotFixed(f"{cmap.kind} map does not fix the disk origin")
    if n_samples < 1:
        raise OutOfRange(f"n_samples must be >= 1, got {n_samples}")
    return _discrepancy_in_place(_uniform_image(cmap, n_samples, seed))


def _uniform_image(cmap: BoundaryMap, n_samples: int, seed: int) -> np.ndarray:
    """The one-step image of invariance_test's samples, mapped chunk by chunk
    into the array that held them."""
    th = np.empty(n_samples)
    for lo, hi in chunks(0, n_samples):
        streams = np.arange(lo, hi, dtype=np.uint64)
        block = TWO_PI * uniform01(seed, streams, 0)
        step = 1
        while cmap.kind == BLASCHKE and not block.all():
            # the product is singular at theta = 0 exactly, which a draw hits
            # with probability 2^-53 (and seed 0 at index 0): redraw those at
            # the next step of their streams
            zero = block == 0.0
            block[zero] = TWO_PI * uniform01(seed, streams[zero], step)
            step += 1
        th[lo:hi] = apply_map(cmap, block)
    return th


# ---------------------------------------------------------------------------
# Arc spreading


@dataclass(frozen=True)
class SpreadReport:
    """Forward-image coverage of an initial arc, one entry per iterate.

    ``covered_fraction[k]`` is the fraction of the reference grid covered by
    the k-th forward image (index 0 is the initial arc).  ``first_full_cover``
    is the first iterate whose image covers every reference cell, if any.
    """

    initial_arc: tuple
    iterations: int
    covered_fraction: tuple
    first_full_cover: Optional[int]


def _covered_fraction(thetas: np.ndarray) -> float:
    """Share of the ``DEFAULT_CELLS`` cells of the uniform reference grid met
    by the polyline through thetas.

    Consecutive sample images are joined along the shorter circle arc, which
    is the correct continuation as long as adjacent images stay within half a
    turn of each other; the sample grid is chosen dense enough for that.
    """
    n_cells = DEFAULT_CELLS
    t = thetas % TWO_PI
    lo = np.minimum(t[:-1], t[1:])
    hi = np.maximum(t[:-1], t[1:])
    wrap = (hi - lo) > math.pi
    lo2 = np.where(wrap, hi, lo)
    hi2 = np.where(wrap, lo + TWO_PI, hi)
    cl = np.floor(lo2 / TWO_PI * n_cells).astype(np.int64)
    ch = np.floor(hi2 / TWO_PI * n_cells).astype(np.int64)
    cl = np.minimum(cl, n_cells - 1)
    diff = np.zeros(n_cells + 1, dtype=np.int64)
    np.add.at(diff, cl, 1)
    np.add.at(diff, np.minimum(ch + 1, n_cells), -1)
    over = ch + 1 > n_cells  # ranges wrapping past the cell array
    if over.any():
        diff[0] += int(over.sum())
        np.add.at(diff, np.minimum(ch[over] + 1 - n_cells, n_cells), -1)
    return int((np.cumsum(diff[:-1]) > 0).sum()) / n_cells


def arc_spread(maps: Union[BoundaryMap, Sequence[BoundaryMap]], arc: tuple,
               n_max: int, grid: int = DEFAULT_GRID) -> SpreadReport:
    """Push a dense arc sample forward and measure reference-grid coverage.

    ``maps`` is a single map (autonomous iteration) or a sequence applied in
    order.  Stops early at the first full cover.
    """
    start, length = float(arc[0]), float(arc[1])
    if not math.isfinite(start):
        raise OutOfRange(f"arc start must be finite, got {start}")
    if not 0.0 < length < math.inf:
        raise OutOfRange(f"arc length must be finite and > 0, got {length}")
    if grid < 2 ** 10:
        raise OutOfRange(f"grid must be >= 2^10, got {grid}")
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
    single = hasattr(maps, "kind")  # a map, not a sequence of maps
    seq = None if single else list(maps)
    limit = n_max if single else min(n_max, len(seq))

    th = start + np.arange(grid) * (length / (grid - 1))
    fractions = [_covered_fraction(th)]
    first_full = None
    iterations = 0
    for k in range(1, limit + 1):
        g = maps if single else seq[k - 1]
        th = apply_map(g, th)
        frac = _covered_fraction(th)
        fractions.append(frac)
        iterations = k
        if frac >= 1.0:
            first_full = k
            break
    return SpreadReport(
        initial_arc=(start, length),
        iterations=iterations,
        covered_fraction=tuple(fractions),
        first_full_cover=first_full,
    )
