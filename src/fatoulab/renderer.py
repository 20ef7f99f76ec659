"""Grid classification of dynamical planes and loop-based connectivity probes.

Pixels are classified by orbit behaviour: attracted to the known fixed point,
escaped (to zero or to infinity, the two ends of the punctured plane), landed
on a singularity, or undecided within the iteration budget.  Undecided is a
first-class verdict; near essential singularities it is the honest answer at
finite resolution.

For the punctured-plane map exp(alpha*(z - 1/z)) the iteration carries the
pair (z, 1/z) and tests escape on the exponent's real part.  Under the
symmetry f(1/z) = 1/f(z) the paired exponent sequence negates exactly in
floating point, so swapping a pair start (z0, u0) -> (u0, z0) provably swaps
the zero/infinity escape verdicts bit-for-bit.  Pixel rows mirror exactly
under conjugation for the same reason (all arithmetic commutes with conj).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

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
        if self.nx < 1 or self.ny < 1:
            raise OutOfRange("grid needs nx, ny >= 1")
        if self.width <= 0 or self.height <= 0:
            raise OutOfRange("grid needs positive width and height")
        if self.max_iter < 1:
            raise OutOfRange("grid needs max_iter >= 1")

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


_DEFAULT_TARGETS = {
    map_zoo.EXP_BAKER: 1.0 + 0.0j,
    map_zoo.SINE_MODEL: 0.0 + 0.0j,
    map_zoo.MCMULLEN: None,
}


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


def _retire(verdict, steps, hit, code, k, idx, *state):
    """Record verdict ``code`` and step ``k`` for the pixels where ``hit``;
    return the compacted ``(idx, *state)`` of the others (always copies)."""
    done = idx[hit]
    verdict[done] = code
    steps[done] = k
    keep = ~hit
    return (idx[keep],) + tuple(a[keep] for a in state)


def _classify_exp_baker(alpha, z, u, max_iter, tol, escape_radius, target):
    """Pair iteration for exp(alpha*(z - 1/z)); u tracks 1/z.

    State is compacted to the live pixels ``(idx, z, u)``, and compacted
    again only on iterations where a verdict test fires.  Each step is
    written into the state arrays in place: allocating fresh block-sized
    arrays every iteration costs more in page faults than all the
    arithmetic besides ``exp``.
    """
    n = z.size
    verdict = np.zeros(n, dtype=np.uint8)
    steps = np.zeros(n, dtype=np.int32)
    log_r = math.log(escape_radius)
    bad = (z == 0) | (u == 0) | ~np.isfinite(z) | ~np.isfinite(u)
    # copies, so the in-place steps never write to the caller's points
    idx, z, u = _retire(verdict, steps, bad, SINGULAR, 0, np.arange(n), z, u)
    w = np.empty_like(z)
    for k in range(max_iter + 1):
        if not idx.size:
            break
        if target is not None:
            conv = np.abs(z - target) < tol
            if conv.any():
                idx, z, u = _retire(verdict, steps, conv, ATTRACTED, k, idx, z, u)
                if not idx.size:
                    break
        if k == max_iter:
            break
        w = w[:idx.size]
        np.multiply(alpha, z, out=w)
        w -= alpha * u
        re = w.real
        esc_inf = re > log_r
        esc = esc_inf | (re < -log_r)
        if esc.any():
            code = np.where(esc_inf, ESCAPED_INFINITY, ESCAPED_ZERO)[esc]
            idx, w = _retire(verdict, steps, esc, code, k + 1, idx, w)
            z, u = z[:idx.size], u[:idx.size]
        np.exp(w, out=z)
        np.exp(np.negative(w, out=w), out=u)
    return verdict, steps


def _classify_sine(alpha, z, max_iter, tol, escape_radius, target):
    n = z.size
    verdict = np.zeros(n, dtype=np.uint8)
    steps = np.zeros(n, dtype=np.int32)
    idx = np.arange(n)
    bad = ~np.isfinite(z)
    if bad.any():
        idx, z = _retire(verdict, steps, bad, SINGULAR, 0, idx, z)
    for k in range(max_iter + 1):
        if not idx.size:
            break
        if target is not None:
            conv = np.abs(z - target) < tol
            if conv.any():
                idx, z = _retire(verdict, steps, conv, ATTRACTED, k, idx, z)
                if not idx.size:
                    break
        esc = (np.abs(z) > escape_radius) | (np.abs(z.imag) > map_zoo.EXP_CAP)
        if esc.any():
            idx, z = _retire(verdict, steps, esc, ESCAPED_INFINITY, k, idx, z)
        if k == max_iter or not idx.size:
            break
        z = 2.0 * alpha * np.sin(z)
    return verdict, steps


def _classify_mcmullen(m, l, c, z, max_iter, tol, escape_radius, target):
    n = z.size
    verdict = np.zeros(n, dtype=np.uint8)
    steps = np.zeros(n, dtype=np.int32)
    idx = np.arange(n)
    for k in range(max_iter + 1):
        if not idx.size:
            break
        esc = (np.abs(z) > escape_radius) | ~np.isfinite(z)
        if esc.any():
            idx, z = _retire(verdict, steps, esc, ESCAPED_INFINITY, k, idx, z)
            if not idx.size:
                break
        if target is not None:
            conv = np.abs(z - target) < tol
            if conv.any():
                idx, z = _retire(verdict, steps, conv, ATTRACTED, k, idx, z)
                if not idx.size:
                    break
        if k == max_iter:
            break
        pole = z == 0
        if pole.any():  # the pole maps straight to infinity
            idx, z = _retire(verdict, steps, pole, ESCAPED_INFINITY, k + 1, idx, z)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = z ** m + c / z ** l
    return verdict, steps


def classify_points(spec: map_zoo.MapSpec, points, max_iter: int,
                    tol: float = DEFAULT_TOL,
                    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
                    target: Optional[complex] = "default",
                    reciprocals=None, threads: int = 1):
    """Classify arbitrary start points under the grid orbit contract.

    For exp_baker, ``reciprocals`` optionally supplies the second member of
    each iteration pair; by default it is 1/points.  Passing a swapped pair
    (u0, z0) realizes the exact z <-> 1/z verdict symmetry.

    Points are classified in contiguous blocks of ``BLOCK`` pixels, shared
    out over ``threads`` workers when threads > 1.  Every operation is
    elementwise per pixel, so neither the blocks nor the thread count change
    a verdict or a step.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    recips = (None if reciprocals is None
              else np.asarray(reciprocals, dtype=np.complex128).ravel())
    return _classify_blocks(spec, pts.size, lambda start, stop, _: pts[start:stop],
                            max_iter, tol, escape_radius, target, recips, threads)


def _classify_blocks(spec, n, points_of, max_iter, tol, escape_radius,
                     target, recips, threads):
    """Classify ``n`` pixels block by block.

    ``points_of(start, stop, scratch)`` gives the start points of one
    block.  ``scratch`` is the calling worker's own ``_point_scratch``, so
    the points may live in it; the kernels only read them.
    """
    if target == "default":
        target = _DEFAULT_TARGETS.get(spec.kind)
    if spec.kind == map_zoo.EXP_BAKER:
        (alpha,) = spec.params

        def kernel(z0, block):
            if recips is None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    u0 = np.where(z0 != 0, 1.0 / z0, np.inf)
            else:
                u0 = recips[block]
            return _classify_exp_baker(alpha, z0, u0, max_iter, tol,
                                       escape_radius, target)
    elif spec.kind == map_zoo.SINE_MODEL:
        (alpha,) = spec.params

        def kernel(z0, block):
            return _classify_sine(alpha, z0, max_iter, tol, escape_radius, target)
    elif spec.kind == map_zoo.MCMULLEN:
        m, l, c = spec.params

        def kernel(z0, block):
            return _classify_mcmullen(m, l, c, z0, max_iter, tol,
                                      escape_radius, target)
    else:
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
            verdict[block], steps[block] = kernel(z0, block)

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


def render_rgb(grid: ClassifiedGrid, out: Optional[np.ndarray] = None) -> np.ndarray:
    """uint8 RGB array of shape (ny, nx, 3): fixed palette per verdict,
    brightness decaying with the step count.

    Painted block by block into ``out`` (C-contiguous) when given, so no
    array but the image spans the whole grid.
    """
    if out is None:
        out = np.zeros((grid.spec.ny, grid.spec.nx, 3), dtype=np.uint8)
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
    otherwise LoopNotInBasin is raised.
    """
    if radius <= 0:
        raise OutOfRange(f"loop radius must be > 0, got {radius}")
    spec = grid.spec
    dx, dy = spec.pixel_size()
    center = complex(center)

    # rasterize the loop with sub-pixel sampling
    n_samples = max(1024, int(8.0 * (2.0 * math.pi * radius) / min(dx, dy)))
    t = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    pts = center + radius * np.exp(1j * t)
    x0 = spec.center.real - spec.width / 2.0
    y0 = spec.center.imag + spec.height / 2.0
    ix = np.floor((pts.real - x0) / dx).astype(np.int64)
    iy = np.floor((y0 - pts.imag) / dy).astype(np.int64)
    if (ix < 0).any() or (ix >= spec.nx).any() or (iy < 0).any() or (iy >= spec.ny).any():
        raise OutOfRange("probe loop leaves the classified grid")
    loop_verdicts = grid.verdict[iy, ix]
    if (loop_verdicts != ATTRACTED).any():
        bad = int((loop_verdicts != ATTRACTED).sum())
        raise LoopNotInBasin(
            f"{bad} of {n_samples} loop samples land on non-attracted pixels"
        )

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
