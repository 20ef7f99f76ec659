"""Explicit universal coverings of model domains and their boundary behaviour.

Three model domains with closed-form coverings of the unit disk:

* annulus A(1/R, R), self-dual form:  pi(z) = exp(i c artanh z) with
  c = 4 log(R) / pi.  artanh maps the disk onto the strip |Im| < pi/4, the
  i c multiplication turns it into the annulus's log-rectangle, and exp
  closes it up.  The real diameter covers the core circle |w| = 1, the deck
  group is generated by one hyperbolic Mobius map fixing +-1, and the limit
  set is exactly {+1, -1}.
* punctured disk:  pi(z) = exp(-(1+z)/(1-z)), parabolic deck generator
  fixing +1, limit set {+1}.
* disk: the identity, trivial deck group, empty limit set.

Radial behaviour is classified from the dyadic schedule t_k = 1 - 2^-k: a
boundary point is escaping when the covering image of its radius converges to
the domain boundary, bounded when it stays compactly inside, bungee when it
oscillates between the two regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lazy_import, map_zoo
from .errors import OutOfRange, OutsideDisk, UnsupportedMap
from .rng import chunks, uniform01

TWO_PI = 2.0 * math.pi
_hg = _lazy_import(f"{__package__}.histograms")  # executed by the radial limit and the pushforward

ANNULUS = "annulus"
PUNCTURED_DISK = "punctured_disk"
DISK = "disk"

DEFAULT_K = 40
DEFAULT_EPS_ESCAPE = 1e-6
DEFAULT_DELTA_BOUNDED = 1e-3

VERDICT_ESCAPING = "escaping"
VERDICT_BOUNDED = "bounded"
VERDICT_BUNGEE = "bungee"
VERDICT_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class CoveringModel:
    """One model domain with its covering formula data.

    For the annulus, ``R`` fixes A(1/R, R) and ``scale`` is c = 4 log(R)/pi.
    ``deck_generator`` is the Mobius map generating the deck group;
    ``limit_set`` the deck limit points on the unit circle.
    """

    domain: str
    R: float
    scale: float
    limit_set: tuple
    deck_generator: map_zoo.MapSpec


def annulus_model(R: float) -> CoveringModel:
    """Canonical self-dual annulus A(1/R, R), R > 1."""
    R = float(R)
    if not R > 1.0:
        raise OutOfRange(f"annulus_model requires R > 1, got {R}")
    c = 4.0 * math.log(R) / math.pi
    # deck generator shifts artanh z by 2*pi/c; tanh addition law gives the
    # disk form (z + t0)/(1 + t0 z), hyperbolic with fixed points +-1
    t0 = math.tanh(TWO_PI / c)
    return CoveringModel(
        domain=ANNULUS, R=R, scale=c,
        limit_set=(1.0 + 0.0j, -1.0 + 0.0j),
        deck_generator=map_zoo.mobius(1.0, t0, t0, 1.0),
    )


def punctured_disk_model() -> CoveringModel:
    # deck generator: conjugate of w -> w + 2*pi*i through (1+z)/(1-z)
    a = 2.0 - TWO_PI * 1j
    b = TWO_PI * 1j
    c = -TWO_PI * 1j
    d = 2.0 + TWO_PI * 1j
    return CoveringModel(
        domain=PUNCTURED_DISK, R=math.nan, scale=math.nan,
        limit_set=(1.0 + 0.0j,),
        deck_generator=map_zoo.mobius(a, b, c, d),
    )


def disk_model() -> CoveringModel:
    return CoveringModel(domain=DISK, R=math.nan, scale=math.nan,
                         limit_set=(), deck_generator=map_zoo.identity_mobius())


def _check_in_disk(z):
    if np.any(np.abs(z) >= 1.0):
        raise OutsideDisk("covering arguments must satisfy |z| < 1")


def cover_eval(model: CoveringModel, z):
    """Covering map value at z in the open unit disk (scalar or array)."""
    z_arr = np.asarray(z, dtype=np.complex128)
    _check_in_disk(z_arr)
    if model.domain == ANNULUS:
        out = np.exp(1j * model.scale * np.arctanh(z_arr))
    elif model.domain == PUNCTURED_DISK:
        out = np.exp(-(1.0 + z_arr) / (1.0 - z_arr))
    elif model.domain == DISK:
        out = z_arr + 0.0j
    else:
        raise UnsupportedMap(f"unknown covering domain {model.domain!r}")
    return complex(out) if np.ndim(z) == 0 else out


def deck_apply(model: CoveringModel, z):
    """Apply the deck generator; cover_eval(deck_apply(z)) == cover_eval(z)."""
    z_arr = np.asarray(z, dtype=np.complex128)
    _check_in_disk(z_arr)
    out = map_zoo.evaluate_many(model.deck_generator, z_arr)
    return complex(out) if np.ndim(z) == 0 else out


def boundary_distance(model: CoveringModel, w):
    """Distance from a domain point to the boundary of the model domain."""
    r = np.abs(np.asarray(w, dtype=np.complex128))
    if model.domain == ANNULUS:
        out = np.minimum(r - 1.0 / model.R, model.R - r)
    elif model.domain == PUNCTURED_DISK:
        out = np.minimum(1.0 - r, r)
    elif model.domain == DISK:
        out = 1.0 - r
    else:
        raise UnsupportedMap(f"unknown covering domain {model.domain!r}")
    return float(out) if np.ndim(w) == 0 else out


# ---------------------------------------------------------------------------
# Lifts


def lift_map(model_src: CoveringModel, model_dst: CoveringModel,
             spec: map_zoo.MapSpec) -> map_zoo.MapSpec:
    """Disk-level inner function g with cover_dst(g(z)) = f(cover_src(z)).

    Supported pairs: a rotation of the annulus onto itself (the lift is the
    hyperbolic Mobius map shifting artanh z by theta/c), and the power map
    A(1/R, R) -> A(1/R^d, R^d) (the lift is the identity).
    """
    if spec.kind == map_zoo.ROTATION:
        if model_src.domain != ANNULUS or model_dst.domain != ANNULUS:
            raise UnsupportedMap("rotation lifts are supported on annuli only")
        if abs(model_src.R - model_dst.R) > 1e-12 * model_src.R:
            raise UnsupportedMap("rotation must map the annulus onto itself")
        (theta,) = spec.params
        t = math.tanh(theta / model_src.scale)
        return map_zoo.mobius(1.0, t, t, 1.0)
    if spec.kind == map_zoo.POWER:
        (d,) = spec.params
        if model_src.domain != ANNULUS or model_dst.domain != ANNULUS:
            raise UnsupportedMap("power-map lifts are supported on annuli only")
        if abs(model_dst.R - model_src.R ** d) > 1e-9 * model_dst.R:
            raise UnsupportedMap(
                f"power map of degree {d} sends A(1/R,R) to A(1/R^{d},R^{d}); "
                f"destination radius {model_dst.R} does not match"
            )
        return map_zoo.identity_mobius()
    raise UnsupportedMap(f"no lift rule for map kind {spec.kind!r}")


def mobius_boundary_fixed_points(spec: map_zoo.MapSpec):
    """Fixed points of a Mobius map on the unit circle, with derivatives.

    Returns a list of (point, derivative) pairs; a hyperbolic disk
    automorphism yields exactly two, each with real derivative != 1.
    """
    if spec.kind != map_zoo.MOBIUS:
        raise UnsupportedMap("boundary fixed points are defined for Mobius maps")
    a, b, c, d = spec.params
    # fixed points: c z^2 + (d - a) z - b = 0
    if c == 0:
        roots = [] if a == d else [b / (d - a)]
    else:
        disc = (d - a) ** 2 + 4.0 * b * c
        sq = disc ** 0.5
        roots = [((a - d) + sq) / (2.0 * c), ((a - d) - sq) / (2.0 * c)]
        if len(roots) == 2 and abs(roots[0] - roots[1]) < 1e-12:
            roots = roots[:1]  # parabolic: one double fixed point
    out = []
    for r in roots:
        if abs(abs(r) - 1.0) < 1e-9:
            der = map_zoo.derivative(spec, r)
            out.append((complex(r), der))
    return out


# ---------------------------------------------------------------------------
# Radial classification


@dataclass(frozen=True)
class RadialClass:
    """Verdict of the radial tracker, the thresholds it used and a summary of
    the distance trail: its minimum, its last value and its length."""

    verdict: str
    min_boundary_distance: float
    last_boundary_distance: float
    samples_used: int
    eps_escape: float
    delta_bounded: float


def classify_distance_trail(distances, eps_escape: float = DEFAULT_EPS_ESCAPE,
                            delta_bounded: float = DEFAULT_DELTA_BOUNDED) -> RadialClass:
    """Classification rule on a boundary-distance trail d_1..d_K.

    bounded: every distance stays above delta_bounded.
    bungee: the tail (k >= K/2) crosses between the below-eps and
        above-delta regimes at least 3 times.
    escaping: the tail is non-increasing and the final distance is below
        eps_escape.  (Escape along the dyadic schedule decays geometrically,
        so monotone decay to below threshold is the robust signature; a
        fixed cutoff index would misread points adjacent to the limit set.)
    undetermined: anything else.

    Raises OutOfRange unless 0 < eps_escape < delta_bounded: past that no
    trail could escape, or every trail below delta_bounded would.
    """
    if not 0.0 < eps_escape < delta_bounded:
        raise OutOfRange("classify_distance_trail requires 0 < eps_escape < delta_bounded, "
                         f"got {eps_escape} and {delta_bounded}")
    d = [float(x) for x in distances]
    if not d:
        raise OutOfRange("classify_distance_trail needs at least one distance")
    k = len(d)
    tail = d[k // 2:]
    verdict = VERDICT_UNDETERMINED
    if min(d) > delta_bounded:
        verdict = VERDICT_BOUNDED
    else:
        crossings = 0
        state = None
        for x in tail:
            s = "low" if x < eps_escape else ("high" if x > delta_bounded else None)
            if s is not None:
                if state is not None and s != state:
                    crossings += 1
                state = s
        non_increasing = all(tail[i + 1] <= tail[i] * (1.0 + 1e-9)
                             for i in range(len(tail) - 1))
        if crossings >= 3:
            verdict = VERDICT_BUNGEE
        elif non_increasing and d[-1] < eps_escape:
            verdict = VERDICT_ESCAPING
    return RadialClass(
        verdict=verdict,
        min_boundary_distance=min(d),
        last_boundary_distance=d[-1],
        samples_used=k,
        eps_escape=eps_escape,
        delta_bounded=delta_bounded,
    )


def radial_classify(model: CoveringModel, xi, K: int = DEFAULT_K,
                    eps_escape: float = DEFAULT_EPS_ESCAPE,
                    delta_bounded: float = DEFAULT_DELTA_BOUNDED) -> RadialClass:
    """Track the covering image of the radius at xi on t_k = 1 - 2^-k."""
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > 1e-9:
        raise OutOfRange(f"radial_classify requires |xi| = 1, got |xi| = {abs(xi)}")
    xi /= abs(xi)
    if K < 2:
        raise OutOfRange(f"radial_classify requires K >= 2, got {K}")
    t = 1.0 - np.exp2(-np.arange(1, K + 1, dtype=np.float64))
    w = cover_eval(model, t * xi)
    d = boundary_distance(model, w)
    return classify_distance_trail(d, eps_escape, delta_bounded)


# ---------------------------------------------------------------------------
# Radial limits and the pushforward of arc length


def radial_limit_annulus(model: CoveringModel, phi):
    """Closed-form radial limit on the annulus at xi = e^(i phi).

    Returns (component, angle): component 0 is the outer circle |w| = R
    (lower semicircle of the disk boundary), component 1 the inner circle
    (upper semicircle).  The limit does not exist at phi = 0 or pi; no float
    angle is pi, and phi = 0 is read as phi = 1e-12.
    """
    half = _hg.wrap_angles(np.asarray(phi, dtype=np.float64)) / 2.0
    # phi/2 rounds to 0 only at phi = 0 and at the least subnormal
    half = np.where(half == 0.0, 0.5e-12, half)
    # tan(phi/2) is finite and nonzero for phi in (0, 2 pi), tan(pi/2) being
    # 1.6e16, and it is positive exactly on the upper semicircle
    t = np.tan(half)
    comp = np.where(t > 0.0, 1, 0)
    # artanh(e^(i phi)) tends to (log|cot(phi/2)|)/2 + i (sign) pi/4
    psi = -(model.scale / 2.0) * np.log(np.abs(t))
    if np.ndim(phi) == 0:
        return int(comp), float(psi % TWO_PI)
    return comp, psi % TWO_PI


def pushforward_measure(model: CoveringModel, n_samples: int, n_bins: int,
                        seed: int, sample_offset: int = 0):
    """Empirical pushforward of uniform arc length under the radial extension.

    Samples xi uniformly on the unit circle, maps through the model's
    closed-form radial limit, and bins on each boundary component.  Returns
    one ArcHistogram whose row c is component c, with n_samples as its
    denominator.  Sample i draws from counter stream (sample_offset + i), so
    the counts of a run split into offset ranges add up exactly to the
    unsplit result; samples are drawn in contiguous chunks of ``rng.CHUNK``
    streams, so memory does not grow with ``n_samples``.
    """
    if n_samples < 1:
        raise OutOfRange(f"n_samples must be >= 1, got {n_samples}")
    if n_bins < 1:
        raise OutOfRange(f"n_bins must be >= 1, got {n_bins}")
    if model.domain not in (ANNULUS, DISK, PUNCTURED_DISK):
        raise UnsupportedMap(f"unknown covering domain {model.domain!r}")
    shape = (1 if model.domain == DISK else 2, n_bins)
    counts = np.zeros(shape, dtype=np.int64)
    for lo, hi in chunks(sample_offset, sample_offset + n_samples):
        counts += _pushforward_chunk(model, shape, seed, lo, hi)
    return _hg.ArcHistogram(counts, n_samples)


def _pushforward_chunk(model: CoveringModel, shape, seed: int, first: int, end: int):
    """Counts, a ``shape`` matrix, of the pushforward of samples ``first .. end - 1``."""
    phi = TWO_PI * uniform01(seed, np.arange(first, end, dtype=np.uint64), 0)
    if model.domain == ANNULUS:
        comp, psi = radial_limit_annulus(model, phi)
        return _hg.count_arcs(comp, _hg.bin_angles(psi, shape[1]), shape)
    if model.domain == PUNCTURED_DISK:
        # all mass lands on the unit circle; the puncture has zero capacity.
        # phi = 0, which seed 0 draws at index 0, is read as 1e-12
        half = np.where(phi == 0.0, 0.5e-12, phi / 2.0)
        phi = (-np.cos(half) / np.sin(half)) % TWO_PI
    return _hg.count_arcs(0, _hg.bin_angles(phi, shape[1]), shape)
