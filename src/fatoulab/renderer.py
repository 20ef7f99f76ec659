"""Grid classification of dynamical planes and loop-based connectivity probes.

Pixels are classified by orbit behaviour: attracted to the known fixed point,
escaped (to zero or to infinity, the two ends of the punctured plane), landed
on a singularity, or undecided within the iteration budget.  Undecided is a
first-class verdict; near essential singularities it is the honest answer at
finite resolution.

A pixel is attracted, with step k, when its orbit first lies inside a disk
around the target at step k.  An explicit target's disk has radius tol.  The
default target p of exp_baker (1) and sine_model (0) has a certified
trapping disk instead when it is larger (``map_zoo.trapping_disk``, see
``_attraction_test``): the map sends the closed disk into a strictly
smaller concentric one, so by the
Earle-Hamilton fixed-point theorem (1970) p attracts every orbit that
enters it.  An orbit in the disk can neither escape nor land on a
singularity, so the disk changes no verdict but undecided -> attracted;
it only stops attracted orbits sooner.

One compaction loop, ``_escape_time``, runs every kind over blocks of
pixels; a kind is an ``_Orbits`` description.  At step k its ``now`` tests
retire pixels with step k.  Below max_iter its ``ahead`` tests, which read
what the next step is built from, retire pixels with step k + 1, and its
step writes step k + 1 into the state arrays in place.  The order of each
list is part of the contract: mcmullen tests escape before attraction, the
other kinds attraction first.  Live orbits are compacted only when a test
retires one, and only the arrays read after that test are.

For the punctured-plane map exp(alpha*(z - 1/z)) the iteration carries the
pair (z, 1/z) and tests escape on the exponent's real part.  Under the
symmetry f(1/z) = 1/f(z) the paired exponent sequence negates exactly in
floating point, so swapping a pair start (z0, u0) -> (u0, z0) provably swaps
the zero/infinity escape verdicts bit-for-bit.  The start (-z0, -u0) negates
the first exponent exactly too, since alpha*(-z) - alpha*(-u) is
-(alpha*z - alpha*u) in IEEE arithmetic, so from step 1 on the pair of -z0
is (u, z): one orbit classifies z0 and -z0, the two escape ends swapped.

Every kind's arithmetic (complex add and fused multiply-add, Smith
division, ``exp``, ``sin``, ``square``, ``abs``) commutes with conjugation,
so a map with real parameters and a real target gives conj(z0) the verdict
and step of z0.  It also commutes with negation, round to nearest being
symmetric: sine_model is odd, and mcmullen with m and l of equal parity is
even or odd, so with the target 0 or none -z0 gets the verdict and step of
z0.  A grid centered on the real axis has its rows at exact negatives of
each other, and one centered at 0 its columns too, so ``classify_grid``
iterates only the rows on and above the axis, and then only the columns
left of and on the imaginary axis, and fills in the rest.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import map_zoo
from .errors import LoopNotInBasin, OutOfRange, UnsupportedMap
from .rng import chunks

UNDECIDED = 0
ATTRACTED = 1
ESCAPED_ZERO = 2
ESCAPED_INFINITY = 3
SINGULAR = 4

VERDICT_NAMES = {
    UNDECIDED: "undecided",
    ATTRACTED: "attracted",
    ESCAPED_ZERO: "escaped_to_zero",
    ESCAPED_INFINITY: "escaped_to_infinity",
    SINGULAR: "singular",
}

# the attraction radius around an explicit target; around a kind's default
# target the radius is max(tol, the certified trapping radius)
DEFAULT_TOL = 1e-6
DEFAULT_ESCAPE_RADIUS = 1e10

# fixed palette per verdict; steps modulate brightness
_PALETTE = np.array([  # RGB per verdict code, stored one row per channel
    (0, 0, 0),  # UNDECIDED
    (70, 110, 235),  # ATTRACTED
    (60, 210, 190),  # ESCAPED_ZERO
    (250, 180, 60),  # ESCAPED_INFINITY
    (230, 40, 180),  # SINGULAR
], dtype=np.float64).T.copy()


def _check_orbit_contract(max_iter, tol, escape_radius, target) -> None:
    """Refuse an iteration budget that is not an integer >= 1 (it sizes the
    step counts' type, see _steps_dtype), a tol that is not finite and > 0,
    an escape radius that is not finite and > 1 and a target point that is
    not finite (no orbit could ever be attracted to it)."""
    if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral)
                                          and max_iter >= 1):
        raise OutOfRange(f"orbits need an integer max_iter >= 1, got {max_iter!r}")
    if not (0 < tol < math.inf and 1 < escape_radius < math.inf):
        raise OutOfRange(f"orbits need finite tol > 0 and escape_radius > 1, "
                         f"got {tol}, {escape_radius}")
    if target is not None and not cmath.isfinite(target):
        raise OutOfRange(f"orbits need a finite target, got {target}")


def _steps_dtype(max_iter: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every step count,
    0..max_iter: uint8 up to 255, uint16 up to 65,535, uint32 beyond."""
    return np.min_scalar_type(max_iter)


@dataclass(frozen=True)
class GridSpec:
    """Pixel grid over a rectangle of the plane, with orbit parameters.

    ``tol`` is the attraction radius around an explicit ``target``; None
    is the map kind's default target, tested at max(tol, its certified
    trapping radius), see the module docstring."""

    center: complex
    width: float
    height: float
    nx: int
    ny: int
    max_iter: int
    tol: float = DEFAULT_TOL
    escape_radius: float = DEFAULT_ESCAPE_RADIUS
    target: Optional[complex] = None  # None: the kind's default target

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise OutOfRange("grid needs nx, ny >= 1")
        if not (cmath.isfinite(self.center) and 0 < self.width < math.inf
                and 0 < self.height < math.inf):
            raise OutOfRange("grid needs a finite center, width and height > 0")
        _check_orbit_contract(self.max_iter, self.tol, self.escape_radius, self.target)

    def pixel_size(self) -> tuple:
        return self.width / self.nx, self.height / self.ny

    def block_points(self, start: int, stop: int, scratch=None) -> np.ndarray:
        """Centers of the pixels with flat row-major indices start..stop-1,
        row 0 at the top: pixel j sits in column j % nx and row j // nx.
        Offsets are half-integer multiples of the pixel size, so a window
        centered on an axis is exactly mirror-symmetric.  Every pixel's
        coordinates go through the same operations in the same order, so
        a center does not depend on the block it is built in.

        ``scratch`` (from ``_point_scratch``) holds the work arrays and the
        result, so that block after block allocates nothing; the next call
        overwrites the result.
        """
        return _centers(self, self.nx, start, stop, scratch)

    def points(self) -> np.ndarray:
        """Pixel centers of the whole grid, shape (ny, nx); see block_points."""
        return self.block_points(0, self.nx * self.ny).reshape(self.ny, self.nx)

    def to_dict(self) -> dict:
        d = {
            "center": [self.center.real, self.center.imag],
            "width": self.width, "height": self.height,
            "nx": self.nx, "ny": self.ny, "max_iter": self.max_iter,
            "tol": self.tol, "escape_radius": self.escape_radius,
        }
        if self.target is not None:
            d["target"] = [self.target.real, self.target.imag]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        real, integer = map_zoo.real, map_zoo.integer
        with map_zoo.malformed_json("grid JSON"):
            target = d.get("target")
            return cls(
                center=map_zoo.complex_value(d["center"], "center"),
                width=real(d["width"], "width"), height=real(d["height"], "height"),
                nx=integer(d["nx"], "nx"), ny=integer(d["ny"], "ny"),
                max_iter=integer(d["max_iter"], "max_iter"),
                tol=real(d.get("tol", DEFAULT_TOL), "tol"),
                escape_radius=real(d.get("escape_radius", DEFAULT_ESCAPE_RADIUS),
                                   "escape_radius"),
                target=None if target is None else map_zoo.complex_value(target, "target"),
            )

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class ClassifiedGrid:
    spec: GridSpec
    verdict: np.ndarray  # uint8, shape (ny, nx)
    steps: np.ndarray  # _steps_dtype(spec.max_iter), shape (ny, nx)
    attraction_radius: Optional[float]  # None when there was no attraction test


def _centers(grid: GridSpec, width: int, start: int, stop: int, scratch=None) -> np.ndarray:
    """Centers of the pixels start..stop-1 of the grid's leftmost ``width``
    columns, row-major: pixel j sits in column j % width and row j // width,
    and its center has the bits ``GridSpec.block_points`` gives it."""
    n = stop - start
    ramp, col, row, t, z = (a[:n] for a in scratch or _point_scratch(n))
    dx, dy = grid.pixel_size()
    np.add(ramp, start, out=col)  # j
    np.floor_divide(col, width, out=row)
    np.subtract(grid.ny / 2.0 - 0.5, row, out=t)
    t *= dy
    t += grid.center.imag
    np.multiply(1j, t, out=z)
    row *= width
    col -= row  # j - (j // width) * width, which is j % width and cheaper
    np.add(col, 0.5, out=t)
    t -= grid.nx / 2.0
    t *= dx
    t += grid.center.real
    z += t
    return z


def _point_scratch(n: int) -> tuple:
    """Work arrays for ``GridSpec.block_points`` over blocks of up to n
    pixels: a ramp 0..n-1, column and row indices, one real coordinate and
    the complex result."""
    return (np.arange(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64),
            np.empty(n), np.empty(n, dtype=np.complex128))


@dataclass(frozen=True)
class _Orbits:
    """One kind's escape-time kernel over one block (see the module
    docstring).  An orbit classifies one pixel, or ``slots`` pixels that
    share its iteration.  ``start()`` gives the per-orbit state and
    scratch arrays, which the loop may write, and the orbits retired as
    singular at step 0, so that the loop holds no start array it has
    compacted; a test is ``(mask_of(*arrays), codes)``, ``codes`` holding
    the verdict it gives each slot, or None for a slot it leaves open;
    ``first``, when given, replaces ``now`` at step 0; ``advance``
    computes what the ``ahead`` tests read; a retire compacts the arrays
    with indices in ``now_reads`` or ``ahead_reads`` and cuts the others,
    dead until the step, to size."""

    start: Callable
    now: list
    step: Callable
    ahead: list = ()
    advance: Optional[Callable] = None
    now_reads: tuple = (0,)
    ahead_reads: tuple = (0,)
    first: Optional[list] = None
    slots: int = 1


def _escape_time(orbits: _Orbits, max_iter: int) -> tuple:
    """Verdicts and steps of one block, one row per slot: the one
    compaction loop.  An orbit leaves it once every slot has retired."""
    arrays, singular = orbits.start()
    shape = (orbits.slots, singular.size)
    verdict, steps = np.zeros(shape, np.uint8), np.zeros(shape, _steps_dtype(max_iter))
    idx = np.arange(singular.size)
    # with two slots, which slots of each live orbit are still open
    open_ = None if orbits.slots == 1 else [np.ones(singular.size, bool)] * orbits.slots

    def retire(hit, codes, k, reads):
        nonlocal idx, open_, arrays
        for slot, code in enumerate(codes):
            if code is not None:
                done = idx[hit if open_ is None else hit & open_[slot]]
                verdict[slot, done] = code
                steps[slot, done] = k
        keep = ~hit
        if open_ is not None:  # an orbit stays while one of its slots is open
            open_ = [o if code is None else o & keep for o, code in zip(open_, codes)]
            keep = np.logical_or.reduce(open_)
        if keep.all():
            return
        idx = idx[keep]
        if open_ is not None:
            open_ = [o[keep] for o in open_]
        arrays = tuple(a[keep] if i in reads else a[:idx.size]
                       for i, a in enumerate(arrays))

    retire(singular, (SINGULAR,) * orbits.slots, 0, orbits.now_reads)
    for k in range(max_iter + 1):
        for test, codes in orbits.first if k == 0 and orbits.first else orbits.now:
            hit = test(*arrays)
            if hit.any():
                retire(hit, codes, k, orbits.now_reads)
        if k == max_iter or not idx.size:
            break
        if orbits.advance is not None:
            orbits.advance(*arrays)
        for test, codes in orbits.ahead:
            hit = test(*arrays)
            if hit.any():
                retire(hit, codes, k + 1, orbits.ahead_reads)
        orbits.step(*arrays)
    return verdict, steps


def _attraction_test(spec: map_zoo.MapSpec, tol, escape_radius, target) -> tuple:
    """(target, radius) of the kind's attraction test, or (None, None) for
    none.  An explicit target is tested at radius tol.  None, the kind's
    default, picks the map's attracting fixed point p, tested at max(tol,
    r_trap), the radius of its trapping disk (``map_zoo.trapping_disk``),
    from escape radius 2 up: there no escape test fires in the disk, whose
    exp_baker points lie in 1/2 <= |z| <= 3/2 (exponents' real parts within
    log 2 of 0) and whose sine_model points lie within 1 of 0; a map
    without a disk gets no test."""
    if target is not None:
        return target, tol
    disk = map_zoo.trapping_disk(spec)
    if disk is None:
        return None, None
    point, trap = disk
    return point, max(tol, trap if escape_radius >= 2.0 else 0.0)


def _attraction(target, radius, point=lambda z, *_: z, codes=(ATTRACTED,)) -> list:
    """The test |point(*arrays) - target| < radius, z = arrays[0] unless
    given, or none without a target."""
    return [] if target is None else [
        (lambda *arrays: np.abs(point(*arrays) - target) < radius, codes)]


def _exp_baker(alpha, z, u, radius, escape_radius, target, paired) -> _Orbits:
    """Pair iteration for exp(alpha*(z - 1/z)); u tracks 1/z.  The escape
    tests read the next exponent w = alpha*z - alpha*u, so only w is
    compacted with them, and the step rewrites z and u from w.

    Paired, each orbit also classifies -z0 in a second slot.  From step 1
    on the pair of -z0 is exactly (u, z) (see the module docstring), so
    that slot tests attraction on -z0 at step 0 and on u after it, and
    takes the escape tests with zero and infinity swapped."""
    log_r = math.log(escape_radius)
    slots = 2 if paired else 1

    def start(u=u):
        if u is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.where(z != 0, 1.0 / z, np.inf)
        else:
            u = u.copy()
        return ((z.copy(), u, np.empty_like(z)),
                (z == 0) | (u == 0) | ~np.isfinite(z) | ~np.isfinite(u))

    def advance(z, u, w):
        np.multiply(alpha, z, out=w)
        w -= np.multiply(alpha, u, out=u)  # u is dead until the step

    def step(z, u, w):
        np.exp(w, out=z)
        np.exp(np.negative(w, out=w), out=u)

    def attraction(point, codes):
        return _attraction(target, radius, point, codes)

    now = first = attraction(lambda z, *_: z, (ATTRACTED, None)[:slots])
    if paired:
        first = first + attraction(lambda z, *_: np.negative(z), (None, ATTRACTED))
        now = now + attraction(lambda z, u, w: u, (None, ATTRACTED))
    return _Orbits(
        start=start, now=now, first=first, step=step, advance=advance, slots=slots,
        ahead=[(lambda z, u, w: w.real > log_r, (ESCAPED_INFINITY, ESCAPED_ZERO)[:slots]),
               (lambda z, u, w: w.real < -log_r, (ESCAPED_ZERO, ESCAPED_INFINITY)[:slots])],
        now_reads=(0, 1), ahead_reads=(2,))


def _sine(alpha, z, _u, radius, escape_radius, target, _paired) -> _Orbits:
    """2*alpha*sin(z); ``np.sin`` and a real scale are bit-safe in place."""
    def escaped(z):
        return (np.abs(z) > escape_radius) | (np.abs(z.imag) > map_zoo.EXP_CAP)

    def step(z):
        np.sin(z, out=z)
        z *= 2.0 * alpha

    return _Orbits(start=lambda: ((z.copy(),), ~np.isfinite(z)), step=step,
                   now=_attraction(target, radius) + [(escaped, (ESCAPED_INFINITY,))])


def _mcmullen(m, l, c, z, _u, radius, escape_radius, target, _paired) -> _Orbits:
    """z**m + c / z**l, testing escape before attraction; the pole maps to
    infinity.  ``z ** 2`` is ``np.square``, and each ufunc writes apart from
    its input: aliased, np.square rounds a one-element array differently."""
    power_m, power_l = (np.square if e == 2 else
                        (lambda z, out, e=e: np.power(z, e, out=out)) for e in (m, l))

    def step(z, a, b):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            power_l(z, out=a)
            np.divide(c, a, out=b)
            power_m(z, out=a)
            np.add(a, b, out=z)

    return _Orbits(
        start=lambda: ((z.copy(), np.empty_like(z), np.empty_like(z)), np.zeros(z.shape, bool)),
        step=step,
        now=[(lambda z, *_: (np.abs(z) > escape_radius) | ~np.isfinite(z),
              (ESCAPED_INFINITY,))] + _attraction(target, radius),
        ahead=[(lambda z, *_: z == 0, (ESCAPED_INFINITY,))])


_KINDS = {map_zoo.EXP_BAKER: _exp_baker, map_zoo.SINE_MODEL: _sine,
          map_zoo.MCMULLEN: _mcmullen}


def classify_points(spec: map_zoo.MapSpec, points, max_iter: int,
                    tol: float = DEFAULT_TOL,
                    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
                    target: Optional[complex] = None, reciprocals=None):
    """Classify arbitrary start points under the grid orbit contract;
    ``target`` None is the kind's default target (see _attraction_test).

    For exp_baker, ``reciprocals`` optionally supplies the second member of
    each iteration pair; by default it is 1/points.  Passing a swapped pair
    (u0, z0) realizes the exact z <-> 1/z verdict symmetry.

    Every operation is elementwise per pixel, so a point's verdict and step
    do not depend on the points classified with it.  Every point is
    iterated: nothing is mirrored or reflected.
    """
    _check_orbit_contract(max_iter, tol, escape_radius, target)
    pts = np.asarray(points, dtype=np.complex128).ravel()
    recips = (None if reciprocals is None
              else np.asarray(reciprocals, dtype=np.complex128).ravel())
    verdict = np.empty(pts.size, np.uint8)
    steps = np.empty(pts.size, _steps_dtype(max_iter))

    def store(start, stop, v, s):
        verdict[start:stop], steps[start:stop] = v[0], s[0]

    _classify_blocks(spec, pts.size, lambda start, stop, _: pts[start:stop], store,
                     max_iter, tol, escape_radius, target, recips, False, 1)
    return verdict, steps


def _classify_blocks(spec, n, points_of, store, max_iter, tol, escape_radius,
                     target, recips, paired, threads):
    """Classify pixels 0..n-1 in the contiguous blocks of ``rng.chunks``,
    ``rng.CHUNK`` pixels wide; up to ``threads`` workers stride over the
    block list, each with scratch for the widest block.  ``points_of(start,
    stop, scratch)`` gives a block's start points, possibly in the worker's
    own ``_point_scratch``; ``store(start, stop, verdict, steps)`` takes the
    block's results, one row per slot: ``paired`` exp_baker orbits give a
    second row, for the start points negated.  Returns the attraction
    test's radius, None without one."""
    orbits = _KINDS.get(spec.kind)
    if orbits is None:
        raise UnsupportedMap(f"classify supports exp_baker, sine_model, "
                             f"mcmullen; got {spec.kind!r}")
    target, radius = _attraction_test(spec, tol, escape_radius, target)
    blocks = chunks(0, n)
    widest = max((stop - start for start, stop in blocks), default=0)
    workers = max(1, min(threads, len(blocks)))

    def work(first):
        scratch = _point_scratch(widest)
        for start, stop in blocks[first::workers]:
            z0 = points_of(start, stop, scratch)
            u0 = None if recips is None else recips[start:stop]
            store(start, stop, *_escape_time(
                orbits(*spec.params, z0, u0, radius, escape_radius, target, paired), max_iter))

    if workers == 1:
        work(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by one thread

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    return radius


def _symmetries(spec: map_zoo.MapSpec, grid: GridSpec) -> tuple:
    """Whether the grid is mirrored (its rows below the real axis are
    conjugates of rows above) and reflected (its right columns are the
    point reflections of its left ones); see classify_grid."""
    # a kind without a kernel goes on to _classify_blocks' UnsupportedMap
    if spec.kind not in _KINDS:
        return False, False
    mirrored = (grid.center.imag == 0
                and all(complex(v).imag == 0 for v in spec.params + (grid.target or 0,)))
    # sine_model is odd; mcmullen is even or odd when m and l share parity
    reflected = grid.center == 0 and (
        spec.kind == map_zoo.EXP_BAKER
        or (not grid.target and (spec.kind == map_zoo.SINE_MODEL
                                 or (spec.params[0] - spec.params[1]) % 2 == 0)))
    return mirrored, reflected


def _rectangles(start: int, stop: int, width: int) -> list:
    """Pixels start..stop-1 of a row-major region ``width`` columns wide as
    rectangles (r0, r1, c0, c1), some maybe empty: the rest of the first
    row, whole rows and the start of the last row."""
    (r0, c0), (r1, c1) = divmod(start, width), divmod(stop, width)
    if r0 == r1:
        return [(r0, r0 + 1, c0, c1)]
    return [(r0, r0 + 1, c0, width), (r0 + 1, r1, 0, width), (r1, r1 + 1, 0, c1)]


def classify_grid(spec: map_zoo.MapSpec, grid: GridSpec,
                  threads: int = 1) -> ClassifiedGrid:
    """Classify every pixel of the grid; ``threads`` caps the workers and
    does not change the result (see classify_points).  Each worker builds
    its blocks' pixel centers in its own scratch arrays, so memory is the
    outputs plus a fixed amount per worker.

    Two symmetries of the module docstring cut the pixels iterated, each
    exact bit for bit.  When the grid's center is on the real axis, every
    map parameter is real and the target is the kind's default or real,
    the grid is mirrored: the rows below the axis are the conjugates of
    the rows above it, so only the top ``ny - ny // 2`` rows, the middle
    row of an odd grid included, are iterated.  When the center is 0, the
    grid is reflected: pixel z0 of the left columns has -z0 among the right
    ones, so only the left ``nx - nx // 2`` columns of those rows, the
    middle column of an odd grid included, are iterated.  That holds for
    exp_baker, whose orbits then classify z0 and -z0 together, and for
    sine_model and mcmullen with m and l of equal parity, whose -z0 gets
    the verdict and step of z0, when the target is the default or 0.
    A block writes its results at its own pixels, and exp_baker's -z0 at
    theirs, so no two workers write one pixel; after the pool, slice copies
    fill the other kinds' reflections, then the top right rows and the rows
    below the axis from their conjugates.
    """
    ny, nx = grid.ny, grid.nx
    verdict = np.empty((ny, nx), dtype=np.uint8)
    steps = np.empty((ny, nx), dtype=_steps_dtype(grid.max_iter))
    mirrored, reflected = _symmetries(spec, grid)
    top = ny - ny // 2 if mirrored else ny
    left = nx - nx // 2 if reflected else nx
    twins = nx - left  # the first twins columns reflect onto columns not iterated
    paired = spec.kind == map_zoo.EXP_BAKER and twins > 0

    def store(start, stop, v, s):
        for r0, r1, c0, c1 in _rectangles(start, stop, left):
            o, shape = r0 * left + c0 - start, (r1 - r0, c1 - c0)
            t = max(0, min(c1, twins) - c0)
            for out, got in ((verdict, v), (steps, s)):
                got = got[:, o:o + shape[0] * shape[1]].reshape(len(got), *shape)
                out[r0:r1, c0:c1] = got[0]
                if paired:  # -z0's slot, for the columns < twins
                    out[ny - r1:ny - r0, nx - c0 - t:nx - c0] = got[1, ::-1, :t][:, ::-1]

    radius = _classify_blocks(
        spec, top * left,
        lambda start, stop, scratch: _centers(grid, left, start, stop, scratch),
        store, grid.max_iter, grid.tol, grid.escape_radius, grid.target, None, paired, threads)
    for out in (verdict, steps):
        if reflected and not paired:  # -z0 has the verdict and step of z0
            out[::-1, ::-1][:top, :twins] = out[:top, :twins]
        out[:ny - top, left:] = out[top:, left:][::-1]  # top right from the conjugates
        out[top:] = out[:ny - top][::-1]  # the rows below the axis
    return ClassifiedGrid(grid, verdict, steps, radius)


def verdict_counts(grid: ClassifiedGrid) -> dict:
    """Pixels per verdict name.  One ``bincount`` per block: over the
    whole grid, bincount's int64 copy of the verdicts would be the largest
    array of a render."""
    verdict = grid.verdict.ravel()
    tally = np.zeros(len(VERDICT_NAMES), dtype=np.int64)
    for start, stop in chunks(0, verdict.size):
        tally += np.bincount(verdict[start:stop], minlength=tally.size)
    return {name: int(tally[code]) for code, name in VERDICT_NAMES.items()}


# ---------------------------------------------------------------------------
# Image emission


def render_rgb(verdict: np.ndarray, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Paint ``out``, a uint8 RGB array of shape (n, 3), for n pixels with
    the given verdicts and step counts: fixed palette per verdict,
    brightness decaying with the step count.  Every pixel is written.
    """
    shade = 0.25 + 0.75 / (1.0 + steps / 48.0)  # float64 for any step type
    shade[(verdict == UNDECIDED) | (verdict == SINGULAR)] = 1.0
    for channel, palette in enumerate(_PALETTE):
        # the unsafe cast truncates, as .astype(np.uint8) does
        np.multiply(palette.take(verdict), shade, out=out[:, channel], casting="unsafe")
    return out


def ppm_chunks(grid: ClassifiedGrid):
    """Binary PPM (P6) as a stream of bytes: the header, then the pixels of
    each ``rng.chunks`` chunk, row-major; byte-deterministic for a given
    classified grid.

    Each chunk is painted into one reused buffer and yielded as a copy, so
    no array but the grid's verdicts and steps spans the whole image.
    """
    nx, ny = grid.spec.nx, grid.spec.ny
    yield f"P6\n{nx} {ny}\n255\n".encode("ascii")
    verdict, steps = grid.verdict.ravel(), grid.steps.ravel()
    blocks = chunks(0, verdict.size)
    rgb = np.empty((max(stop - start for start, stop in blocks), 3), np.uint8)
    for start, stop in blocks:
        pixels = rgb[:stop - start]
        render_rgb(verdict[start:stop], steps[start:stop], pixels)
        yield pixels.tobytes()


# ---------------------------------------------------------------------------
# Non-contractibility probe


@dataclass(frozen=True)
class LoopCertificate:
    """Evidence that a loop in the basin is non-contractible at grid resolution.

    Positive when non-basin pixels exist strictly inside and strictly outside
    the loop; then the loop separates boundary material, so the basin is
    multiply connected at this resolution.
    """

    inside_nonbasin: int
    outside_nonbasin: int
    verdict: bool


def loop_probe(grid: ClassifiedGrid, center: complex, radius: float) -> LoopCertificate:
    """Probe the circle (center, radius) against the classified grid.

    Every pixel the circle passes through must carry the attracted verdict,
    otherwise LoopNotInBasin is raised.  A loop with a non-finite center or
    radius, or whose bounding box leaves the grid by more than a pixel, is
    refused with OutOfRange before it is rasterized: its samples would
    leave the grid too, and their number grows with the radius.
    """
    center = complex(center)
    if not (cmath.isfinite(center) and 0 < radius < math.inf):
        raise OutOfRange(f"loop needs a finite center and a finite radius > 0, "
                         f"got {center}, {radius}")
    spec = grid.spec
    dx, dy = spec.pixel_size()
    x0 = spec.center.real - spec.width / 2.0
    y0 = spec.center.imag + spec.height / 2.0
    if (abs(center.real - spec.center.real) + radius > spec.width / 2.0 + dx
            or abs(center.imag - spec.center.imag) + radius > spec.height / 2.0 + dy):
        raise OutOfRange("probe loop leaves the classified grid")

    # rasterize the loop with sub-pixel sampling
    n_samples = max(1024, int(8.0 * (2.0 * math.pi * radius) / min(dx, dy)))
    t = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    pts = center + radius * np.exp(1j * t)
    ix = np.floor((pts.real - x0) / dx).astype(np.int64)
    iy = np.floor((y0 - pts.imag) / dy).astype(np.int64)
    if (ix < 0).any() or (ix >= spec.nx).any() or (iy < 0).any() or (iy >= spec.ny).any():
        raise OutOfRange("probe loop leaves the classified grid")
    bad = int((grid.verdict[iy, ix] != ATTRACTED).sum())
    if bad:
        raise LoopNotInBasin(f"{bad} of {n_samples} loop samples land on "
                             "non-attracted pixels")

    # count the non-basin pixels inside and outside block by block
    margin = math.hypot(dx, dy)
    verdict = grid.verdict.ravel()
    blocks = chunks(0, verdict.size)
    scratch = _point_scratch(max(stop - start for start, stop in blocks))
    inside = outside = 0
    for start, stop in blocks:
        nonbasin = verdict[start:stop] != ATTRACTED
        if not nonbasin.any():
            continue
        z = spec.block_points(start, stop, scratch)
        z -= center
        dist = np.abs(z)
        inside += int((nonbasin & (dist < radius - margin)).sum())
        outside += int((nonbasin & (dist > radius + margin)).sum())
    return LoopCertificate(inside_nonbasin=inside, outside_nonbasin=outside,
                           verdict=inside > 0 and outside > 0)
