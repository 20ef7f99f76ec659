"""Grid classification of dynamical planes and loop-based connectivity probes.

Pixels are classified by orbit behaviour: attracted to the known fixed point,
escaped (to zero or to infinity, the two ends of the punctured plane), landed
on a singularity, or undecided within the iteration budget.  Undecided is a
first-class verdict; near essential singularities it is the honest answer at
finite resolution.

One compaction loop, ``_escape_time``, runs every kind over blocks of
pixels; a kind is an ``_Orbits`` description.  At step k its ``now`` tests
retire pixels with step k.  Below max_iter its ``ahead`` tests, which read
what the next step is built from, retire pixels with step k + 1, and its
step writes step k + 1 into the state arrays in place.  The order of each
list is part of the contract: mcmullen tests escape before attraction, the
other kinds attraction first.  Live pixels are compacted only when a test
fires, and only the arrays read after that test are.

For the punctured-plane map exp(alpha*(z - 1/z)) the iteration carries the
pair (z, 1/z) and tests escape on the exponent's real part.  Under the
symmetry f(1/z) = 1/f(z) the paired exponent sequence negates exactly in
floating point, so swapping a pair start (z0, u0) -> (u0, z0) provably swaps
the zero/infinity escape verdicts bit-for-bit.  Pixel rows mirror exactly
under conjugation for the same reason (all arithmetic commutes with conj).
"""

from __future__ import annotations

import cmath
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import map_zoo
from .errors import LoopNotInBasin, OutOfRange, UnsupportedMap

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

DEFAULT_TOL = 1e-6
DEFAULT_ESCAPE_RADIUS = 1e10

# fixed palette per verdict; steps modulate brightness
_PALETTE = {
    UNDECIDED: (0, 0, 0),
    ATTRACTED: (70, 110, 235),
    ESCAPED_ZERO: (60, 210, 190),
    ESCAPED_INFINITY: (250, 180, 60),
    SINGULAR: (230, 40, 180),
}


@dataclass(frozen=True)
class GridSpec:
    """Pixel grid over a rectangle of the plane, with orbit parameters."""

    center: complex
    width: float
    height: float
    nx: int
    ny: int
    max_iter: int
    tol: float = DEFAULT_TOL
    escape_radius: float = DEFAULT_ESCAPE_RADIUS
    target: Optional[complex] = None  # default chosen per map kind

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.max_iter < 1:
            raise OutOfRange("grid needs nx, ny and max_iter >= 1")
        if not (cmath.isfinite(self.center) and 0 < self.width < math.inf
                and 0 < self.height < math.inf):
            raise OutOfRange("grid needs a finite center, width and height > 0")
        if not (0 < self.tol < math.inf and 1 < self.escape_radius < math.inf):
            raise OutOfRange(f"grid needs finite tol > 0 and escape_radius > 1, "
                             f"got {self.tol}, {self.escape_radius}")

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
        n = stop - start
        ramp, col, row, t, z = (a[:n] for a in scratch or _point_scratch(n))
        dx, dy = self.pixel_size()
        np.add(ramp, start, out=col)  # j
        np.floor_divide(col, self.nx, out=row)
        np.subtract(self.ny / 2.0 - 0.5, row, out=t)
        t *= dy
        t += self.center.imag
        np.multiply(1j, t, out=z)
        row *= self.nx
        col -= row  # j - (j // nx) * nx, which is j % nx and cheaper
        np.add(col, 0.5, out=t)
        t -= self.nx / 2.0
        t *= dx
        t += self.center.real
        z += t
        return z

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
        with map_zoo.malformed_json("grid JSON"):
            target = d.get("target")
            return cls(
                center=complex(d["center"][0], d["center"][1]),
                width=float(d["width"]), height=float(d["height"]),
                nx=int(d["nx"]), ny=int(d["ny"]), max_iter=int(d["max_iter"]),
                tol=float(d.get("tol", DEFAULT_TOL)),
                escape_radius=float(d.get("escape_radius", DEFAULT_ESCAPE_RADIUS)),
                target=None if target is None else complex(target[0], target[1]),
            )

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class ClassifiedGrid:
    spec: GridSpec
    verdict: np.ndarray  # uint8, shape (ny, nx)
    steps: np.ndarray  # int32, shape (ny, nx)


# Pixels per kernel call: a complex state array of 2**15 values is 512 KiB,
# so a block's few state arrays fit a 2 MiB per-core L2 cache.  Smaller
# blocks repeat the per-iteration Python overhead on long-lived tail pixels
# (2**13 made the mcmullen render slower).
BLOCK = 1 << 15


def _point_scratch(n: int) -> tuple:
    """Work arrays for ``GridSpec.block_points`` over blocks of up to n
    pixels: a ramp 0..n-1, column and row indices, one real coordinate and
    the complex result."""
    return (np.arange(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64),
            np.empty(n), np.empty(n, dtype=np.complex128))


@dataclass(frozen=True)
class _Orbits:
    """One kind's escape-time kernel over one block (see the module
    docstring).  ``start()`` gives the per-pixel state and scratch arrays
    and the pixels retired as singular at step 0, so that the loop holds
    no start array it has compacted; a test is ``(mask_of(*arrays),
    verdict)``; ``advance`` computes what the ``ahead`` tests read; a
    retire compacts the arrays with indices in ``now_reads`` or
    ``ahead_reads`` and cuts the others, dead until the step, to size."""

    start: Callable
    now: list
    step: Callable
    ahead: list = ()
    advance: Optional[Callable] = None
    now_reads: tuple = (0,)
    ahead_reads: tuple = (0,)


def _escape_time(orbits: _Orbits, max_iter: int) -> tuple:
    """Verdicts and steps of one block: the one compaction loop."""
    arrays, singular = orbits.start()
    n = singular.size
    verdict, steps, idx = np.zeros(n, np.uint8), np.zeros(n, np.int32), np.arange(n)

    def retire(hit, code, k, reads):
        nonlocal idx, arrays
        done = idx[hit]
        verdict[done] = code
        steps[done] = k
        keep = ~hit
        idx = idx[keep]
        arrays = tuple(a[keep] if i in reads else a[:idx.size]
                       for i, a in enumerate(arrays))

    # boolean indexing copies, so no step writes to the caller's points
    retire(singular, SINGULAR, 0, orbits.now_reads)
    for k in range(max_iter + 1):
        for test, code in orbits.now:
            hit = test(*arrays)
            if hit.any():
                retire(hit, code, k, orbits.now_reads)
        if k == max_iter or not idx.size:
            break
        if orbits.advance is not None:
            orbits.advance(*arrays)
        for test, code in orbits.ahead:
            hit = test(*arrays)
            if hit.any():
                retire(hit, code, k + 1, orbits.ahead_reads)
        orbits.step(*arrays)
    return verdict, steps


def _attraction(target, default, tol) -> list:
    """The attraction test on z = arrays[0], or none without a target;
    ``"default"`` picks the kind's own."""
    target = default if target == "default" else target
    return [] if target is None else [(lambda z, *_: np.abs(z - target) < tol, ATTRACTED)]


def _exp_baker(alpha, z, u, tol, escape_radius, target) -> _Orbits:
    """Pair iteration for exp(alpha*(z - 1/z)); u tracks 1/z.  The escape
    tests read the next exponent w = alpha*z - alpha*u, so only w is
    compacted with them, and the step rewrites z and u from w."""
    log_r = math.log(escape_radius)

    def start(u=u):
        if u is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.where(z != 0, 1.0 / z, np.inf)
        return ((z, u, np.empty_like(z)),
                (z == 0) | (u == 0) | ~np.isfinite(z) | ~np.isfinite(u))

    def advance(z, u, w):
        np.multiply(alpha, z, out=w)
        w -= np.multiply(alpha, u, out=u)  # u is dead until the step

    def step(z, u, w):
        np.exp(w, out=z)
        np.exp(np.negative(w, out=w), out=u)

    return _Orbits(
        start=start, now=_attraction(target, 1.0 + 0.0j, tol), step=step, advance=advance,
        ahead=[(lambda z, u, w: w.real > log_r, ESCAPED_INFINITY),
               (lambda z, u, w: w.real < -log_r, ESCAPED_ZERO)],
        now_reads=(0, 1), ahead_reads=(2,))


def _sine(alpha, z, _u, tol, escape_radius, target) -> _Orbits:
    """2*alpha*sin(z); ``np.sin`` and a real scale are bit-safe in place."""
    def escaped(z):
        return (np.abs(z) > escape_radius) | (np.abs(z.imag) > map_zoo.EXP_CAP)

    def step(z):
        np.sin(z, out=z)
        z *= 2.0 * alpha

    return _Orbits(start=lambda: ((z,), ~np.isfinite(z)), step=step,
                   now=_attraction(target, 0.0j, tol) + [(escaped, ESCAPED_INFINITY)])


def _mcmullen(m, l, c, z, _u, tol, escape_radius, target) -> _Orbits:
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
        start=lambda: ((z, np.empty_like(z), np.empty_like(z)), np.zeros(z.shape, bool)),
        step=step,
        now=[(lambda z, *_: (np.abs(z) > escape_radius) | ~np.isfinite(z),
              ESCAPED_INFINITY)] + _attraction(target, None, tol),
        ahead=[(lambda z, *_: z == 0, ESCAPED_INFINITY)])


_KINDS = {map_zoo.EXP_BAKER: _exp_baker, map_zoo.SINE_MODEL: _sine,
          map_zoo.MCMULLEN: _mcmullen}


def classify_points(spec: map_zoo.MapSpec, points, max_iter: int,
                    tol: float = DEFAULT_TOL,
                    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
                    target: Optional[complex] = "default", reciprocals=None):
    """Classify arbitrary start points under the grid orbit contract.

    For exp_baker, ``reciprocals`` optionally supplies the second member of
    each iteration pair; by default it is 1/points.  Passing a swapped pair
    (u0, z0) realizes the exact z <-> 1/z verdict symmetry.

    Every operation is elementwise per pixel, so a point's verdict and step
    do not depend on the points classified with it.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    recips = (None if reciprocals is None
              else np.asarray(reciprocals, dtype=np.complex128).ravel())
    return _classify_blocks(spec, pts.size, lambda start, stop, _: pts[start:stop],
                            max_iter, tol, escape_radius, target, recips, 1)


def _classify_blocks(spec, n, points_of, max_iter, tol, escape_radius,
                     target, recips, threads):
    """Classify ``n`` pixels in contiguous blocks of ``BLOCK``, shared out
    over up to ``threads`` workers.  ``points_of(start, stop, scratch)``
    gives a block's start points, possibly in the worker's own
    ``_point_scratch``; the loop copies them before its first step."""
    orbits = _KINDS.get(spec.kind)
    if orbits is None:
        raise UnsupportedMap(f"classify supports exp_baker, sine_model, "
                             f"mcmullen; got {spec.kind!r}")
    verdict = np.empty(n, dtype=np.uint8)
    steps = np.empty(n, dtype=np.int32)
    starts = range(0, n, BLOCK)
    workers = max(1, min(threads, len(starts)))

    def work(first):
        scratch = _point_scratch(min(BLOCK, n))
        for start in starts[first::workers]:
            block = slice(start, min(start + BLOCK, n))
            z0 = points_of(block.start, block.stop, scratch)
            u0 = None if recips is None else recips[block]
            verdict[block], steps[block] = _escape_time(
                orbits(*spec.params, z0, u0, tol, escape_radius, target), max_iter)

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    return verdict, steps


def classify_grid(spec: map_zoo.MapSpec, grid: GridSpec,
                  threads: int = 1) -> ClassifiedGrid:
    """Classify every pixel of the grid; ``threads`` caps the workers and
    does not change the result (see classify_points).  Each worker builds
    its blocks' pixel centers in its own scratch arrays, so memory is the
    outputs plus a fixed amount per worker."""
    target = grid.target if grid.target is not None else "default"
    verdict, steps = _classify_blocks(spec, grid.nx * grid.ny, grid.block_points,
                                      grid.max_iter, grid.tol, grid.escape_radius,
                                      target, None, threads)
    shape = (grid.ny, grid.nx)
    return ClassifiedGrid(grid, verdict.reshape(shape), steps.reshape(shape))


def verdict_counts(grid: ClassifiedGrid) -> dict:
    """Pixels per verdict name.  One ``bincount`` per block: over the
    whole grid, bincount's int64 copy of the verdicts would be the largest
    array of a render."""
    verdict = grid.verdict.ravel()
    tally = np.zeros(len(VERDICT_NAMES), dtype=np.int64)
    for start in range(0, verdict.size, BLOCK):
        tally += np.bincount(verdict[start:start + BLOCK], minlength=tally.size)
    return {name: int(tally[code]) for code, name in VERDICT_NAMES.items()}


# ---------------------------------------------------------------------------
# Image emission


def render_rgb(grid: ClassifiedGrid, out: np.ndarray) -> np.ndarray:
    """Paint ``out``, a C-contiguous uint8 RGB array of shape (ny, nx, 3),
    block by block: fixed palette per verdict, brightness decaying with the
    step count.  No array but the image spans the whole grid.
    """
    verdict, steps, rgb = grid.verdict.ravel(), grid.steps.ravel(), out.reshape(-1, 3)
    for start in range(0, verdict.size, BLOCK):
        block = slice(start, start + BLOCK)
        v, pixels = verdict[block], rgb[block]
        shade = 0.25 + 0.75 / (1.0 + steps[block] / 48.0)
        for code, base in _PALETTE.items():
            mask = v == code
            if not mask.any():
                continue
            if code in (UNDECIDED, SINGULAR):
                pixels[mask] = base
            else:
                lit = shade[mask]
                for ch in range(3):
                    pixels[:, ch][mask] = (base[ch] * lit).astype(np.uint8)
    return out


def ppm_bytes(grid: ClassifiedGrid) -> bytearray:
    """Binary PPM (P6); byte-deterministic for a given classified grid.

    The pixels are painted straight into the one buffer that also holds the
    header.
    """
    nx, ny = grid.spec.nx, grid.spec.ny
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    buf = bytearray(len(header) + 3 * nx * ny)
    buf[:len(header)] = header
    render_rgb(grid, np.frombuffer(buf, np.uint8, offset=len(header)).reshape(ny, nx, 3))
    return buf


def write_image(grid: ClassifiedGrid, path) -> None:
    with open(path, "wb") as fh:
        fh.write(ppm_bytes(grid))


# ---------------------------------------------------------------------------
# Non-contractibility probe


@dataclass(frozen=True)
class LoopCertificate:
    """Evidence that a loop in the basin is non-contractible at grid resolution.

    Positive when non-basin pixels exist strictly inside and strictly outside
    the loop; then the loop separates boundary material, so the basin is
    multiply connected at this resolution.
    """

    center: complex
    radius: float
    inside_nonbasin: int
    outside_nonbasin: int
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "inside_nonbasin": self.inside_nonbasin,
            "outside_nonbasin": self.outside_nonbasin,
            "verdict": self.verdict,
        }


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
    n = verdict.size
    scratch = _point_scratch(min(BLOCK, n))
    inside = outside = 0
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        nonbasin = verdict[start:stop] != ATTRACTED
        if not nonbasin.any():
            continue
        z = spec.block_points(start, stop, scratch)
        z -= center
        dist = np.abs(z)
        inside += int((nonbasin & (dist < radius - margin)).sum())
        outside += int((nonbasin & (dist > radius + margin)).sum())
    return LoopCertificate(center=center, radius=radius,
                           inside_nonbasin=inside, outside_nonbasin=outside,
                           verdict=inside > 0 and outside > 0)
