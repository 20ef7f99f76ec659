"""Harmonic-measure estimation by Walk-on-Spheres on closed-form domains.

A walk from the base point repeatedly jumps to a uniformly random point on
the largest boundary-avoiding circle centered at its current position.  The
jump chain converges to the boundary geometrically; the walk stops once the
distance drops below the epsilon shell and the exit is attributed to the
nearest boundary component and binned by arc.  The resulting histogram
estimates the harmonic measure of the domain seen from the base point.

Domains are described by distance oracles with stable integer component ids:

* ``annulus(r_in, r_out)``: component 0 is the outer circle, 1 the inner.
* ``champagne_disk(bubbles)``: the unit disk minus disjoint closed disks;
  component 0 is the unit circle, components 1..k the bubble circles.  One
  bubble gives the disk minus a disk.

Beside the estimator, ``support_test`` checks that every arc of every
component receives mass, and ``cross_validate`` compares the annulus
estimate with the radial pushforward of ``covering``.

Randomness is a pure function of (seed, walk index, step index), so runs are
reproducible and independent of batching or worker count; walks may be
sharded with ``walk_offset`` and their count matrices merged exactly by
addition.  The walks of a run share a fixed pool of ``rng.CHUNK`` lanes, each
refilled with the next walk as soon as its walk exits or stalls.

A jump of radius d in direction 2πu is added as d·cos 2πu to the real part
and d·sin 2πu to the imaginary part of the position.  ``_cos_sin_2pi``
computes the pair in real IEEE arithmetic alone, with no libm call and no
complex product: u is reduced by quarter turns exactly and a polynomial
does the rest.  numpy's real ufuncs never fuse multiply-adds, so a walk run
in a pool of one lane takes the same steps, bit for bit, as in a pool of
``rng.CHUNK`` lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .covering import ANNULUS as COVER_ANNULUS
from .covering import CoveringModel, cover_eval, pushforward_measure
from .errors import (
    BasePointOnBoundary,
    OutOfRange,
    StallRateExceeded,
    UnsupportedMap,
)
from .histograms import ArcHistogram, bin_angles, count_arcs, tv_distance
from .rng import derive_seed, stream_keys, uniform01

TWO_PI = 2.0 * math.pi

# Taylor coefficients of sin(πs/2)/s and of cos(πs/2) in powers of s², for
# |s| <= 1/2: the first term left out is below 1e-17
_SIN_HALF_PI = tuple((-1) ** k * (math.pi / 2) ** (2 * k + 1) / math.factorial(2 * k + 1)
                     for k in range(9))
_COS_HALF_PI = tuple((-1) ** k * (math.pi / 2) ** (2 * k) / math.factorial(2 * k)
                     for k in range(9))
# cos and sin of q quarter turns, q = 0..4
_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
_SIN_QUARTER = np.array([0.0, 1.0, 0.0, -1.0, 0.0])

ANNULUS = "annulus"
CHAMPAGNE_DISK = "champagne_disk"

DEFAULT_STEP_CAP = 100_000
DEFAULT_N_BINS = 64
STALL_GATE = 1e-3


@dataclass(frozen=True)
class DomainOracle:
    """Closed-form domain with a distance oracle.

    ``bubbles`` is a tuple of (center, radius) pairs for the removed disks;
    empty for the annulus.
    """

    kind: str
    r_in: float
    r_out: float
    bubbles: tuple

    @property
    def n_components(self) -> int:
        if self.kind == ANNULUS:
            return 2
        return 1 + len(self.bubbles)

    def component_centers(self) -> np.ndarray:
        if self.kind == ANNULUS:
            return np.zeros(2, dtype=np.complex128)
        return np.concatenate(
            [[0.0 + 0.0j], np.asarray([b[0] for b in self.bubbles],
                                      dtype=np.complex128)]
        )

    @property
    def diameter(self) -> float:
        return 2.0 * self.r_out if self.kind == ANNULUS else 2.0

    def distance(self, z):
        """Distance from each point of the complex array ``z`` to the
        boundary; negative outside the domain."""
        z = np.asarray(z, dtype=np.complex128)
        if self.kind == ANNULUS:
            r = np.abs(z)
            return np.minimum(self.r_out - r, r - self.r_in)
        d = 1.0 - np.abs(z)
        for c, r in self.bubbles:
            d_bub = np.abs(z - c)
            d_bub -= r
            np.minimum(d, d_bub, out=d)
        return d

    def component(self, z):
        """Id of the boundary component nearest to each point of ``z``.

        Built from the same elementwise distances as ``distance``, so a walk
        asks for the ids of its exiting points only.
        """
        z = np.asarray(z, dtype=np.complex128)
        if self.kind == ANNULUS:
            r = np.abs(z)
            return np.where(self.r_out - r < r - self.r_in, 0, 1)
        # running minimum over the bubbles; strict < keeps the first
        # nearest component on ties, as argmin would
        d = 1.0 - np.abs(z)
        comp = np.zeros(z.shape, dtype=np.intp)
        for cid, (c, r) in enumerate(self.bubbles, start=1):
            d_bub = np.abs(z - c)
            d_bub -= r
            closer = d_bub < d
            np.copyto(d, d_bub, where=closer)
            np.copyto(comp, cid, where=closer)
        return comp


def annulus(r_in: float, r_out: float) -> DomainOracle:
    if not 0.0 < r_in < r_out:
        raise OutOfRange(f"annulus needs 0 < r_in < r_out, got ({r_in}, {r_out})")
    return DomainOracle(ANNULUS, float(r_in), float(r_out), ())


def champagne_disk(bubbles) -> DomainOracle:
    """Unit disk minus pairwise disjoint closed disks strictly inside it."""
    bub = tuple((complex(c), float(r)) for c, r in bubbles)
    if not bub:
        raise OutOfRange("champagne_disk needs at least one bubble")
    for i, (c, r) in enumerate(bub):
        if r <= 0:
            raise OutOfRange(f"bubble {i} has non-positive radius {r}")
        if abs(c) + r >= 1.0:
            raise OutOfRange(f"bubble {i} is not strictly inside the unit disk")
        for j in range(i + 1, len(bub)):
            cj, rj = bub[j]
            if abs(c - cj) <= r + rj:
                raise OutOfRange(f"bubbles {i} and {j} are not disjoint")
    return DomainOracle(CHAMPAGNE_DISK, math.nan, math.nan, bub)


def annulus_outer_mass(rho: float, r_in: float, r_out: float) -> float:
    """Closed-form harmonic measure of the outer circle from |z| = rho.

    log(rho / r_in) / log(r_out / r_in) is harmonic in log|z|, 0 on the inner
    circle and 1 on the outer one.
    """
    if not r_in < rho < r_out:
        raise OutOfRange(f"need r_in < rho < r_out, got rho={rho}")
    return math.log(rho / r_in) / math.log(r_out / r_in)


# ---------------------------------------------------------------------------
# Walk-on-Spheres


@dataclass(frozen=True)
class WalkResult:
    """Exit histogram of one Walk-on-Spheres run."""

    hist: ArcHistogram  # row c counts the exits through component c
    walks: int
    stalled: int
    seed: int
    epsilon_shell: float

    def component_masses(self) -> list:
        return self.hist.component_masses()

    def summary(self) -> dict:
        return {
            "walks": self.walks,
            "stalled": self.stalled,
            "seed": self.seed,
            "epsilon_shell": self.epsilon_shell,
            "component_masses": self.component_masses(),
        }


def _cos_sin_2pi(u, work, quadrant):
    """cos 2πu and sin 2πu for the float64 array ``u`` of values in [0, 1).

    Returns views of rows 0 and 1 of ``work``, a (4, u.size) float64 array;
    its other rows, the intp array ``quadrant`` and ``u`` itself are
    overwritten.  With 4u = q + s, q = rint(4u) in 0..4 and |s| <= 1/2 (both
    exact), the angle is (π/2)(q + s): the polynomials give the cos and sin
    of (π/2)s, and q quarter turns rotate them by exact swaps and sign flips.
    Within one unit in the last place of 1 of the exact cos and sin of 2πu.
    """
    cos, sin, t, tmp = work
    s = np.multiply(u, 4.0, out=u)
    np.rint(s, out=cos)
    quadrant[...] = cos
    s -= cos
    np.multiply(s, s, out=t)
    for coefficients, out in ((_SIN_HALF_PI, sin), (_COS_HALF_PI, cos)):
        np.multiply(t, coefficients[-1], out=out)
        for c in coefficients[-2:0:-1]:
            out += c
            out *= t
        out += coefficients[0]
    sin *= s
    # (cos, sin) <- (cq cos - sq sin, sq cos + cq sin); one of cq, sq is 0 and
    # the other ±1, so every product and sum here is exact
    cq = np.take(_COS_QUARTER, quadrant, out=s)
    sq = np.take(_SIN_QUARTER, quadrant, out=t)
    np.multiply(sq, cos, out=tmp)
    sq *= sin
    cos *= cq
    sin *= cq
    cos -= sq
    sin += tmp
    return cos, sin


def walk_on_spheres(domain: DomainOracle, base: complex, walks: int,
                    step_cap: int = DEFAULT_STEP_CAP,
                    seed: int = 0, n_bins: int = DEFAULT_N_BINS,
                    walk_offset: int = 0) -> WalkResult:
    """Run ``walks`` independent walks from ``base`` and bin their exits.

    A walk exits within the epsilon shell of 1e-6 times the domain diameter.
    Walk i draws its jump angles from counter stream (walk_offset + i); a
    run sharded into offset ranges merges to the unsharded result exactly.
    A walk that has made ``step_cap`` jumps without exiting is counted as
    stalled; the run is rejected if the stalled fraction reaches 0.1%.

    Walks run in a pool of at most ``rng.CHUNK`` lanes, read at call time.
    A lane whose walk exits or stalls starts the next walk on the same step,
    and the pool shrinks only once the last walk has started, so memory does
    not grow with ``walks`` and a run has one drain tail.
    """
    if walks < 1:
        raise OutOfRange(f"walks must be >= 1, got {walks}")
    if n_bins < 1:
        raise OutOfRange(f"n_bins must be >= 1, got {n_bins}")
    epsilon_shell = 1e-6 * domain.diameter
    base = complex(base)
    d0 = domain.distance(np.asarray([base]))[0]
    if not d0 >= 0:
        raise OutOfRange(f"base point {base} lies outside the domain")
    if d0 <= epsilon_shell:
        raise BasePointOnBoundary(
            f"base point {base} is within the epsilon shell of the boundary"
        )

    centers = domain.component_centers()
    shape = (domain.n_components, n_bins)
    counts = np.zeros(shape, dtype=np.int64)
    stalled = 0
    # lane state: position, distance to the boundary, stream key and the
    # counter of the walk's next jump; a walk starts at the base point,
    # whose distance d0 is checked above
    next_walk, end = walk_offset + min(walks, rng.CHUNK), walk_offset + walks
    z = np.full(next_walk - walk_offset, base, dtype=np.complex128)
    d = np.full(z.size, d0)
    key = stream_keys(seed, np.arange(walk_offset, next_walk, dtype=np.uint64))
    step = np.ones(z.size, dtype=np.uint64)
    # the jump's scratch, allocated once and sliced as the drain tail shrinks
    work, quadrant = np.empty((4, z.size)), np.empty(z.size, dtype=np.intp)
    jumps = 0  # steps taken by the pool: no lane has made more jumps
    while z.size:
        cos, sin = _cos_sin_2pi(uniform01(None, key, step), work, quadrant)
        cos *= d
        sin *= d
        z.real += cos
        z.imag += sin
        step += 1
        jumps += 1
        d = domain.distance(z)
        done = exited = d < epsilon_shell
        if jumps >= step_cap:
            # a walk stalls after its step_cap-th jump, unchecked
            stall = step > step_cap
            exited = exited & ~stall
            done = exited | stall
            stalled += int(np.count_nonzero(stall))
        if not done.any():
            continue
        exits = z[exited]
        cids = domain.component(exits)
        ang = np.angle(exits - centers[cids]) % TWO_PI
        counts += count_arcs(cids, bin_angles(ang, n_bins), shape)
        # the freed lanes take the next walks; once every walk has started,
        # the lanes left free are dropped
        free = np.flatnonzero(done)
        new = min(free.size, end - next_walk)
        lane = free[:new]
        z[lane], d[lane], step[lane] = base, d0, 1
        started = np.arange(next_walk, next_walk + new, dtype=np.uint64)
        key[lane] = stream_keys(seed, started)
        next_walk += new
        if new < free.size:
            keep = np.ones(z.size, dtype=bool)
            keep[free[new:]] = False
            z, d, key, step = z[keep], d[keep], key[keep], step[keep]
            work, quadrant = work[:, :z.size], quadrant[:z.size]

    if stalled / walks >= STALL_GATE:
        raise StallRateExceeded(
            f"{stalled} of {walks} walks exceeded the step cap {step_cap}"
        )
    return WalkResult(hist=ArcHistogram(counts, walks), walks=walks, stalled=stalled,
                      seed=seed, epsilon_shell=epsilon_shell)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class SupportReport:
    """Bins whose empirical mass falls below the positivity threshold."""

    passed: bool
    min_bin_mass: float
    deficient: tuple  # (component_id, bin_index, mass)
    smallest_mass: float


def support_test(result: WalkResult, min_bin_mass: float) -> SupportReport:
    """Check that every arc of every boundary component received at least
    ``min_bin_mass``, which must be > 0: at 0 or below, or NaN, every
    histogram would pass."""
    if not min_bin_mass > 0:
        raise OutOfRange(f"min_bin_mass must be > 0, got {min_bin_mass}")
    masses = result.hist.masses()
    deficient = tuple((int(cid), int(j), float(masses[cid, j]))
                      for cid, j in zip(*np.nonzero(masses < min_bin_mass)))
    return SupportReport(
        passed=not deficient,
        min_bin_mass=min_bin_mass,
        deficient=deficient,
        smallest_mass=float(masses.min()),
    )


@dataclass(frozen=True)
class CrossValidation:
    """Agreement between the WoS estimate and the radial pushforward."""

    tv_distance: float
    threshold: float
    passed: bool
    walks: int


def cross_validate(model: CoveringModel, walks: int, seed: int,
                   n_bins: int = 32) -> CrossValidation:
    """Compare the two estimators of the harmonic measure of the annulus
    A(1/R, R) of an annulus covering model.

    The Brownian exit distribution from cover_eval(0) and the pushforward of
    arc length under the radial extension both target the harmonic measure
    with that base point, so their total-variation distance must vanish at
    the Monte-Carlo rate; the pass threshold is 10/sqrt(walks).
    """
    if model.domain != COVER_ANNULUS:
        raise UnsupportedMap(f"cross_validate needs an annulus model, got {model.domain!r}")
    base = cover_eval(model, 0.0 + 0.0j)
    wos = walk_on_spheres(annulus(1.0 / model.R, model.R), base, walks,
                          seed=derive_seed(seed, 1), n_bins=n_bins)
    push = pushforward_measure(model, walks, n_bins, derive_seed(seed, 2))
    tv = tv_distance(wos.hist, push)
    threshold = 10.0 / math.sqrt(walks)
    return CrossValidation(tv_distance=tv, threshold=threshold,
                           passed=tv < threshold, walks=walks)
