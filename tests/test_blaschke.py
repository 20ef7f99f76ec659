import cmath
import math

import numpy as np
import pytest

from fatoulab import blaschke as bl
from fatoulab.errors import FatouLabError, OutOfRange, TooCloseToSingularity

# Golden s = log(tau) values: the doubles nearest the 50-digit mpmath roots
# of theta_4(e^-s)^2 = 2 alpha; see test_solve_tau_against_mpmath_theta_root
# for the live recomputation.
GOLDEN_S = {
    0.1: 1.2631017405342246,
    0.25: 1.9179186892820425,
    0.4: 2.9413544519645196,
}


@pytest.mark.parametrize("alpha,s_golden", sorted(GOLDEN_S.items()))
def test_solve_tau_against_frozen_goldens(alpha, s_golden):
    ts = bl.solve_tau(alpha)
    assert ts.residual < 1e-12
    assert ts.tau > 1.0
    assert _ulps(ts.s, s_golden) <= 1
    assert abs(ts.tau - math.exp(s_golden)) < 1e-12 * math.exp(s_golden)


def _mp_log_multiplier(s):
    """log theta_4(e^-s)^2 at the working precision, through Jacobi's
    imaginary transformation theta_4(e^-s) = sqrt(pi/s) theta_2(e^(-pi^2/s))
    for s < 1, where the theta_4 series converges slowly."""
    import mpmath

    s = mpmath.mpf(s)
    if s < 1:
        p = mpmath.exp(-mpmath.pi ** 2 / s)
        return 2 * mpmath.log(mpmath.sqrt(mpmath.pi / s) * mpmath.jtheta(2, 0, p))
    return 2 * mpmath.log(mpmath.jtheta(4, 0, mpmath.exp(-s)))


def _ulps(a: float, b: float) -> int:
    """Doubles from a to b, for a and b of one sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@pytest.mark.parametrize("alpha", [1e-300, 1e-8, 0.1, 0.25, 0.4, 0.49, 0.4999, 0.5 - 1e-12])
def test_solve_tau_against_mpmath_theta_root(alpha):
    # the root of theta_4(e^-s)^2 = 2 alpha to 50 digits, by bisection on
    # [1e-3, 40]; the solver is within 3 ulps of it at every alpha, from
    # 1e-300 (s = 0.0071) to 1e-12 below 1/2 (s = 28.3)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        target = mpmath.log(2 * mpmath.mpf(alpha))
        lo, hi = mpmath.mpf("1e-3"), mpmath.mpf(40)
        for _ in range(190):
            mid = (lo + hi) / 2
            if _mp_log_multiplier(mid) < target:
                lo = mid
            else:
                hi = mid
        root = float((lo + hi) / 2)
    ts = bl.solve_tau(alpha)
    assert _ulps(ts.s, root) <= 3
    assert ts.tau == math.exp(ts.s)


def test_solve_tau_monotone_in_alpha():
    assert bl.solve_tau(1e-4).s < bl.solve_tau(1e-3).s
    assert bl.solve_tau(0.1).s < bl.solve_tau(0.4).s


def test_solve_tau_validation():
    for bad in (-0.1, 0.0, 0.5, 0.7):
        with pytest.raises(OutOfRange):
            bl.solve_tau(bad)
    for tol in (0.0, math.nan):
        with pytest.raises(OutOfRange, match="tol > 0"):
            bl.solve_tau(0.4, tol=tol)


def test_log_multiplier_small_s_no_underflow():
    # the product theta_4(e^-s)^2 underflows at s this small; its log stays
    # finite and meets the oracle
    mpmath = pytest.importorskip("mpmath")
    val, _slope = bl.log_multiplier(0.01)
    assert math.isfinite(val)
    assert val < -400.0
    with mpmath.workdps(50):
        assert abs(val - float(_mp_log_multiplier(0.01))) <= 2e-16 * abs(val)


@pytest.mark.parametrize("s", [1e-3, 0.3, np.nextafter(1.0, 0.0), 1.0, 2.9, 12.0, 38.0])
def test_log_multiplier_and_slope_against_mpmath(s):
    # both series, on each side of their switch at s = 1, and the slope that
    # Newton's method steps with
    mpmath = pytest.importorskip("mpmath")
    val, slope = bl.log_multiplier(s)
    with mpmath.workdps(50):
        want = _mp_log_multiplier(s)
        want_slope = mpmath.diff(_mp_log_multiplier, mpmath.mpf(s))
    assert abs(val - float(want)) <= 4e-16 * abs(float(want))
    assert abs(slope - float(want_slope)) <= 4e-16 * abs(float(want_slope))


def test_log_multiplier_validation():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(OutOfRange, match="s > 0"):
            bl.log_multiplier(bad)


def test_zero_sequence_structure():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    a = B.zeros
    assert np.all(a > 0.0) and np.all(a < 1.0)
    assert np.all(np.diff(a) > 0.0)
    # tanh addition law: a_{n+1} = (a_n + a_1) / (1 + a_1 a_n)
    pred = (a[:-1] + a[0]) / (1.0 + a[0] * a[:-1])
    assert np.max(np.abs(a[1:] - pred)) < 1e-14


def test_eval_zero_and_zeros_of_product():
    B = bl.BlaschkeProduct.from_alpha(0.1)
    assert bl.eval_blaschke(B, 0.0) == 0.0 + 0.0j
    a3 = B.zeros[2]
    assert abs(bl.eval_blaschke(B, a3)) < 1e-10
    assert abs(bl.eval_blaschke(B, -a3)) < 1e-10


def test_eval_real_interval_stays_real():
    B = bl.BlaschkeProduct.from_alpha(0.25)
    for t in np.linspace(0.05, B.zeros[0] - 0.01, 7):
        val = bl.eval_blaschke(B, complex(t, 0.0))
        assert abs(val.imag) < 1e-14


def test_eval_at_i_is_i():
    # every factor equals (a^2+1)/(1+a^2) = 1 at z = i
    B = bl.BlaschkeProduct.from_alpha(0.4)
    assert abs(bl.eval_blaschke(B, 1j) - 1j) < 1e-12


def test_eval_conjugation_symmetry():
    B = bl.BlaschkeProduct.from_alpha(0.3)
    z = 0.4 + 0.35j
    assert bl.eval_blaschke(B, z.conjugate()) == bl.eval_blaschke(B, z).conjugate()


def test_eval_array_matches_scalar():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    zs = np.array([0.2 + 0.1j, -0.5j, 0.6])
    arr = bl.eval_blaschke(B, zs)
    for z, v in zip(zs, arr):
        assert abs(bl.eval_blaschke(B, complex(z)) - v) < 1e-15


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_derivative_at_zero_multiplier(alpha):
    B = bl.BlaschkeProduct.from_alpha(alpha)
    assert abs(bl.derivative_at_zero(B) - 2.0 * alpha) < 1e-10


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.4999])
def test_derivative_at_zero_is_the_product_of_the_zeros(alpha):
    # Gauss's identity prod tanh^2(n s / 2) = theta_4(e^-s)^2: the product
    # over the zeros, which the tables' first-use check evaluates, meets the
    # theta series that derivative_at_zero sums
    B = bl.BlaschkeProduct.from_alpha(alpha)
    assert _ulps(math.exp(2.0 * np.log(B.zeros).sum()), bl.derivative_at_zero(B)) <= 4


def test_derivative_at_zero_finite_difference():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    h = 1e-5
    fd = (bl.eval_blaschke(B, h) - bl.eval_blaschke(B, -h)).real / (2.0 * h)
    assert abs(fd - bl.derivative_at_zero(B)) < 1e-8


def test_circle_eval_odd_symmetry():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    for theta in (0.3, 1.2, 2.8):
        plus = float(bl.circle_eval_many(B, theta))
        minus = float(bl.circle_eval_many(B, -theta))
        assert abs((plus + minus) % (2.0 * math.pi)) < 1e-9 or \
            abs((plus + minus) % (2.0 * math.pi) - 2.0 * math.pi) < 1e-9


def test_circle_eval_quarter_turn():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    assert abs(float(bl.circle_eval_many(B, math.pi / 2)) - math.pi / 2) < 1e-12


def test_circle_eval_refuses_only_theta_zero():
    # the theta quotient has no exclusion zone: it refuses theta = 0 (mod
    # 2 pi), where B has no radial limit, and evaluates every other angle
    B = bl.BlaschkeProduct.from_alpha(0.4)
    for theta in (0.0, -0.0, 2.0 * math.pi, -4.0 * math.pi):
        with pytest.raises(TooCloseToSingularity, match="singular"):
            bl.circle_eval_many(B, theta)
    near = np.array([1e-300, 1e-4, math.pi - 1e-4, math.pi + 1e-4, 2.0 * math.pi - 1e-9])
    out = bl.circle_eval_many(B, near)
    assert np.all((out >= 0.0) & (out < 2.0 * math.pi))


def test_circle_eval_refuses_angles_whose_cot_overflows():
    # below ~1.1e-308 (mod 2 pi) u = cot(theta/2) is +inf in floating point:
    # the evaluator, the orbit and singular_angle refuse the same angles
    B = bl.BlaschkeProduct.from_alpha(0.4)
    for theta in (1.1e-308, 1e-309, 5e-324):
        assert bl.singular_angle(theta)
        with pytest.raises(TooCloseToSingularity, match="overflows"):
            bl.circle_eval_many(B, theta)
        with pytest.raises(TooCloseToSingularity, match="overflows"):
            bl.circle_orbit(B, theta, 3)
    for theta in (1.2e-308, 1e-300, -1e-309, math.pi):
        assert not bl.singular_angle(theta)
        first = bl.circle_orbit(B, theta, 3)[0]
        assert _angle_error(first, float(bl.circle_eval_many(B, theta))) <= 1e-14


def test_required_terms_diverges_toward_singularity():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    thetas = 0.5 * 2.0 ** -np.arange(8)  # geometric approach to theta = 0
    thetas = thetas[thetas > 2e-3]
    ns = [bl.required_terms(B, complex(np.exp(1j * t)), 1e-9) for t in thetas]
    assert all(b >= a for a, b in zip(ns, ns[1:]))
    assert ns[-1] > ns[0]


def test_boundary_modulus_machine_level():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    th = np.linspace(0.06, math.pi - 0.06, 400)
    vals = bl.eval_blaschke(B, np.exp(1j * th))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_circle_pushforward_uniformity_ks():
    # Lebesgue measure is invariant under the boundary map of an inner
    # function fixing 0; the image of a uniform sample stays uniform.
    from fatoulab.circle_dynamics import discrepancy, ks_critical
    from fatoulab.rng import uniform01

    B = bl.BlaschkeProduct.from_alpha(0.4)
    n = 10_000
    th = bl.TWO_PI * uniform01(909, np.arange(n, dtype=np.uint64), 0)
    gap = np.minimum(np.abs(th), np.abs(th - math.pi))
    gap = np.minimum(gap, np.abs(th - 2.0 * math.pi))
    th = np.where(gap <= 2e-3, th + 4e-3, th)
    ks = discrepancy(bl.circle_eval_many(B, th))
    assert ks < ks_critical(n, 0.01)


def test_eval_outside_disk_rejected():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    with pytest.raises(OutOfRange):
        bl.eval_blaschke(B, 1.5)


@pytest.mark.parametrize("alpha", [1e-8, 0.1, 0.25, 0.4])
def test_one_point_eval_matches_per_term_loop(alpha):
    # the disk evaluator runs its per-term Horner loop in real arithmetic, so
    # a point gives the same bits alone (a 0-d array), in a one-element array
    # and inside arrays of 37 and of 20,000 points, above numpy's temporary
    # elision threshold of 16,384; 1e-8 takes the modular transform
    B = bl.BlaschkeProduct.from_alpha(alpha)
    rng = np.random.default_rng(int(alpha * 100))
    near = np.exp(1j * np.array(_near_singularities(range(1, 13))))
    r = 1.0 - 10.0 ** -rng.uniform(0.0, 12.0, 20_000 - near.size)
    z = np.concatenate([near, r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, r.size))])
    many = bl.eval_blaschke(B, z)
    assert np.array_equal(bl.eval_blaschke(B, z[:37]), many[:37])
    for i in range(0, z.size, 7):
        assert bl.eval_blaschke(B, z[i]) == many[i]
        assert bl.eval_blaschke(B, z[i:i + 1])[0] == many[i]


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_scalar_required_terms_matches_array(alpha):
    B = bl.BlaschkeProduct.from_alpha(alpha)
    th = np.concatenate([np.linspace(2e-3, math.pi - 2e-3, 3001),
                         2e-3 * 1.01 ** np.arange(300)])
    z = np.exp(1j * th)
    for target_err in (1e-9, 1e-12):
        many = bl.required_terms(B, z, target_err)
        one = [bl.required_terms(B, complex(p), target_err) for p in z]
        assert one == many.tolist()


def test_required_terms_degenerate_bounds():
    # with no error to certify the bound is log(0); a scalar point takes
    # numpy's IEEE answer like an array, instead of failing in math.log
    B = bl.BlaschkeProduct.from_alpha(0.4)
    with np.errstate(divide="ignore"):
        assert bl.required_terms(B, 1j, math.inf) == \
            bl.required_terms(B, np.array([1j]), math.inf)[0]
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(OutOfRange):
            bl.required_terms(B, 1j, bad)


def _in_zone(theta) -> np.ndarray:
    """Whether e^(i theta) lies within the chord 1e-3 of +-1, elementwise: the
    zone that the product refused before the disk evaluator became the
    theta quotient."""
    z = np.exp(1j * np.asarray(theta))
    return np.minimum(np.abs(z - 1.0), np.abs(z + 1.0)) <= 1e-3


def _first_angle_outside(inside: float, outside: float) -> float:
    """The float between the two angles, on the outside's side, closest to
    the zone's edge: bisection on the zone mask itself."""
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return outside
        if _in_zone(mid):
            inside = mid
        else:
            outside = mid


@pytest.mark.parametrize("alpha", [1e-300, 1e-6, 0.1, 0.25, 0.4, 0.499])
def test_circle_target_certifies_every_angle_outside_the_zone(alpha):
    # the circle map is the theta quotient, which has no exclusion zone: it
    # maps every angle just outside the product's old zone, one at a time and
    # as an array
    B = bl.BlaschkeProduct.from_alpha(alpha)
    eps = np.geomspace(1e-7, 1e-1, 25)
    th = []
    for centre, side in ((0.0, 1.0), (math.pi, -1.0), (math.pi, 1.0),
                         (2.0 * math.pi, -1.0)):
        t = _first_angle_outside(centre + side * 1e-3, centre + side * 2e-3)
        for _ in range(4):  # the four floats nearest the edge
            th.append(t)
            t = np.nextafter(t, centre + side)
        th += list(centre + side * 1e-3 * (1.0 + eps))
    th = np.array(th)
    assert not _in_zone(th).any()
    for t in th:  # an orbit step evaluates one angle
        bl.circle_eval_many(B, t)
    bl.circle_eval_many(B, th)


def test_eval_empty_input():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    assert bl.eval_blaschke(B, np.array([])).shape == (0,)
    assert bl.circle_eval_many(B, np.array([])).shape == (0,)


def test_eval_keeps_the_shape_of_one_point():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    z = np.exp(0.7j)
    assert isinstance(bl.eval_blaschke(B, z), complex)
    for shape in ((1,), (1, 1)):
        out = bl.eval_blaschke(B, np.full(shape, z))
        assert out.shape == shape and out.ravel()[0] == bl.eval_blaschke(B, z)


def test_circle_eval_many_takes_a_0d_angle():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    out = bl.circle_eval_many(B, 1.0)
    assert np.ndim(out) == 0
    assert float(out) == bl.circle_eval_many(B, np.array([1.0]))[0]
    assert float(bl.circle_eval_many(B, np.float64(1.0))) == float(out)
    with pytest.raises(TooCloseToSingularity):
        bl.circle_eval_many(B, 0.0)


# ---------------------------------------------------------------------------
# The circle evaluator against an independent oracle

def _oracle_digits(gap: float) -> int:
    """mp.dps for the oracle a distance gap from +-1: below 45 + log10(1 / gap)
    digits the product cancels near +-1 and stops early."""
    return 45 + max(0, int(-math.log10(gap)))


def _oracle_product(s: float, z, gap: float):
    """The product at the mpmath point z, a distance gap from +-1, at the
    working precision, which the caller sets to _oracle_digits(gap)."""
    import mpmath

    s = mpmath.mpf(s)
    z2 = z * z
    out = z
    # factor n deviates from 1 by at most ~8 tau^-n / gap
    last = int((mpmath.mp.dps * math.log(10.0) + math.log(8.0 / gap)) / s) + 2
    for n in range(1, last + 1):
        a2 = mpmath.tanh(n * s / 2) ** 2
        out *= (a2 - z2) / (1 - a2 * z2)
    return out


def _oracle_angle(s: float, theta: float) -> float:
    """arg B(e^(i theta)) from the product in mpmath, for the exact float
    theta."""
    mpmath = pytest.importorskip("mpmath")
    # no float lies within 1e-16 of pi or 2 pi
    gap = min(theta, max(abs(theta - math.pi), 1e-16), max(abs(theta - 2.0 * math.pi), 1e-16))
    with mpmath.workdps(_oracle_digits(gap)):
        out = _oracle_product(s, mpmath.expj(mpmath.mpf(theta)), gap)
        return mpmath.arg(out) % (2 * mpmath.pi)


def _oracle_value(s: float, z: complex) -> complex:
    """B(z) from the product in mpmath, for the exact float z."""
    mpmath = pytest.importorskip("mpmath")
    gap = min(abs(z - 1.0), abs(z + 1.0))
    with mpmath.workdps(_oracle_digits(gap)):
        return complex(_oracle_product(s, mpmath.mpc(z.real, z.imag), gap))


def _angle_error(got: float, want) -> float:
    d = float(abs(got - want)) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _near_singularities(exponents):
    th = []
    for e in exponents:
        g = 10.0 ** -e
        th += [g, math.pi - g, math.pi + g, 2.0 * math.pi - g]
    return [t for t in th if 0.0 < t < 2.0 * math.pi]


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_circle_eval_against_mpmath_oracle(alpha):
    B = bl.BlaschkeProduct.from_alpha(alpha)
    th = _near_singularities(range(1, 31)) + [0.3, 1.0, math.pi / 2, 2.5, 4.0, 5.9]
    got = bl.circle_eval_many(B, np.array(th))
    worst = max(_angle_error(g, _oracle_angle(B.s, t)) for g, t in zip(got, th))
    assert worst <= 1.3e-14
    for t in (1e-100, 1e-300):  # deep in the deck reduction's tables
        assert _angle_error(float(bl.circle_eval_many(B, t)), _oracle_angle(B.s, t)) <= 1.6e-13


@pytest.mark.parametrize("alpha", [0.499, 1e-6, 1e-12])
def test_circle_eval_spot_checks_against_mpmath_oracle(alpha):
    # 1e-12 takes the modular transform's leading term instead of the series
    B = bl.BlaschkeProduct.from_alpha(alpha)
    th = _near_singularities((3, 12, 25)) + [0.7, 2.0, 3.6, 5.0]
    got = bl.circle_eval_many(B, np.array(th))
    # the map's expansion near +-1 grows like 1/s: a rounding of u moves the
    # angle by about pi/s ulps
    tol = 1.3e-14 * max(1.0, 0.3 / B.s)
    assert max(_angle_error(g, _oracle_angle(B.s, t)) for g, t in zip(got, th)) <= tol


@pytest.mark.parametrize("alpha", [0.1, 0.4])
def test_orbit_steps_against_mpmath_oracle(alpha):
    # each step of the u-orbit is the map to rounding: the angle of the next
    # point against the oracle at this point, scaled by |B'| there
    B = bl.BlaschkeProduct.from_alpha(alpha)
    orbit = bl.circle_orbit(B, 0.3, 40)
    for a, b in zip(orbit[:-1], orbit[1:]):
        assert _angle_error(b, _oracle_angle(B.s, a)) <= 1e-15 * (1.0 + _boundary_derivative(B, a))


def _disk_approaches(exponents):
    """Points at the distances 10^-e from +1 and from -1, approaching them
    radially, obliquely and nearly tangentially (0.07 rad off the circle)."""
    zs = []
    for e in exponents:
        for c in (1.0, -1.0):
            for phi in (0.0, 0.7, -0.7, 1.5, -1.5):
                zs.append(c * (1.0 - 10.0 ** -e * cmath.exp(1j * phi)))
    return zs


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 1e-8, 1e-40])
def test_disk_eval_against_mpmath_oracle(alpha):
    # the disk evaluator has no zone: it meets the product down to 1e-12 from
    # +-1 (inside the product's old zone of 1e-3), on and off the circle.  A
    # rounding of y moves B by up to pi/s times as much; at alpha 1e-40 (s =
    # 0.051, the modular transform like 1e-8) that is what bounds it
    B = bl.BlaschkeProduct.from_alpha(alpha)
    zs = _disk_approaches(range(3, 13) if alpha >= 0.1 else (3, 7, 12))
    zs += [0.3 + 0.2j, -0.5j, 0.9 * cmath.exp(0.4j), cmath.exp(2.0j), B.zeros[0]]
    got = bl.eval_blaschke(B, np.array(zs))
    tol = max(1e-14, 3.0 * np.finfo(float).eps * math.pi / B.s)
    assert max(abs(g - _oracle_value(B.s, z)) for g, z in zip(got, zs)) <= tol


def test_disk_eval_refuses_only_plus_and_minus_one():
    # z = +-1 is zeta = inf or 0, where y is infinite or 0: refused, with no
    # RuntimeWarning, alone or among other points
    B = bl.BlaschkeProduct.from_alpha(0.4)
    for z in (1.0, -1.0, complex(1.0, -0.0)):
        with pytest.raises(TooCloseToSingularity, match="singular"):
            bl.eval_blaschke(B, z)
        with pytest.raises(TooCloseToSingularity, match="singular"):
            bl.eval_blaschke(B, np.array([0.5, z]))
    near = np.exp(1j * np.array([1e-300, 1e-12, math.pi - 1e-12, math.pi + 1e-12, -1e-5]))
    near = np.concatenate([near, [1.0 - 1e-15, -1.0 + 1e-15, 1.0 - 1e-300j]])
    out = bl.eval_blaschke(B, near)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)
    # theta = 1e-300 is refused by neither evaluator
    assert _angle_error(np.angle(out[0]), float(bl.circle_eval_many(B, 1e-300))) <= 1e-15


def _boundary_derivative(B, theta) -> np.ndarray:
    """|B'(e^(i theta))|: for an inner function, the sum of the Poisson
    kernels (1 - |a|^2)/|z - a|^2 over its zeros a."""
    z = np.exp(1j * np.asarray(theta, dtype=np.float64))[..., None]
    w = 1.0 - B.zeros_squared
    return 1.0 + np.sum(w / np.abs(z - B.zeros) ** 2 + w / np.abs(z + B.zeros) ** 2, axis=-1)


@pytest.mark.parametrize("alpha", [1e-6, 0.1, 0.25, 0.4, 0.499, 1e-300])
def test_circle_eval_one_point_matches_arrays(alpha):
    # one float (a 0-d array), a one-element array, 37 elements and 20,000
    # (above numpy's temporary elision threshold of 16,384) give the same
    # bits: numpy's one-element and long loops round alike here
    B = bl.BlaschkeProduct.from_alpha(alpha)
    rng = np.random.default_rng(7)
    th = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 19_900),
                         np.array(_near_singularities(range(1, 26)))])[:20_000]
    many = bl.circle_eval_many(B, th)
    assert np.array_equal(bl.circle_eval_many(B, th[:37]), many[:37])
    for i in range(0, th.size, 97):
        assert bl.circle_eval_many(B, float(th[i])) == many[i]
        assert bl.circle_eval_many(B, th[i:i + 1])[0] == many[i]


def test_circle_orbit_steps_agree_with_the_angle_map():
    # the orbit runs in u and each step rounds its own way: the next angle
    # agrees with circle_eval_many at this one to rounding scaled by |B'|
    B = bl.BlaschkeProduct.from_alpha(0.4)
    orbit = bl.circle_orbit(B, math.pi / 8, 20_000)
    step = bl.circle_eval_many(B, orbit[:-1])
    gap = np.abs((step - orbit[1:] + math.pi) % (2.0 * math.pi) - math.pi)
    assert np.all(gap <= 4e-15 * _boundary_derivative(B, orbit[:-1]))


def test_theta_tables_are_certified_against_the_product(monkeypatch):
    # the tables are checked once against the product; a disagreement is an
    # error, not a silently wrong map
    monkeypatch.setattr(bl, "_CERTIFY_TOL", -1.0)
    B = bl.BlaschkeProduct.from_alpha(0.4)
    with pytest.raises(FatouLabError, match="theta quotient"):
        bl.circle_eval_many(B, 1.0)


@pytest.mark.parametrize("alpha", [1e-300, 0.1, 0.4])
def test_deck_tables_reduce_every_positive_double(alpha):
    # an orbit in u may reach any double: the tables take the smallest
    # subnormal and the largest double alike, and bring every normal u into
    # [tau^(-1/2), tau^(1/2)].  A subnormal u has fewer bits than the edges
    # resolve there, so only its coverage is checked
    B = bl.BlaschkeProduct.from_alpha(alpha)
    t = B.theta
    subnormal = np.array([5e-324, 1e-320, 1e-310])
    normal = np.array([2.3e-308, 1e-200, 0.5, 1.0, 3.0, 1e200, 1e308, np.finfo(float).max])
    for u in (subnormal, normal):
        i = np.searchsorted(t.edges, u, side="right")
        assert np.all((i > 0) & (i < t.edges.size))
    x = (normal * t.pre[i]) * t.post[i]
    assert np.all(np.abs(np.log(x)) <= 0.5 * B.s * (1.0 + 1e-9))
    assert np.array_equal(np.searchsorted(t.edges, [0.0, math.inf, math.nan], side="right"),
                          [0, t.edges.size, t.edges.size])
