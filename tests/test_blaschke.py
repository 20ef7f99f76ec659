import math

import numpy as np
import pytest

from fatoulab import blaschke as bl
from fatoulab.errors import OutOfRange, TooCloseToSingularity

# Golden s = log(tau) values from a 40-digit bisection oracle (mpmath,
# 400-term log-space products); see test_solve_tau_against_mpmath_oracle
# for the live recomputation.
GOLDEN_S = {
    0.1: 1.2631017405342246,
    0.25: 1.9179186892820425,
    0.4: 2.9413544519645193,
}


@pytest.mark.parametrize("alpha,s_golden", sorted(GOLDEN_S.items()))
def test_solve_tau_against_frozen_goldens(alpha, s_golden):
    ts = bl.solve_tau(alpha)
    assert ts.residual < 1e-12
    assert ts.tau > 1.0
    assert abs(ts.s - s_golden) < 1e-13 * s_golden
    assert abs(ts.tau - math.exp(s_golden)) < 1e-12 * math.exp(s_golden)


def test_solve_tau_against_mpmath_oracle():
    mp_mod = pytest.importorskip("mpmath")
    mp = mp_mod.mp
    mp.dps = 30

    def log_p(s, terms=300):
        return sum(2 * mp_mod.log(mp_mod.tanh(n * s / 2)) for n in range(1, terms + 1))

    for alpha in (0.17, 0.4):
        target = mp_mod.log(2 * mp_mod.mpf(alpha))
        lo, hi = mp_mod.mpf("0.1"), mp_mod.mpf("40")
        for _ in range(120):
            mid = (lo + hi) / 2
            if log_p(mid) < target:
                lo = mid
            else:
                hi = mid
        s_oracle = float((lo + hi) / 2)
        ts = bl.solve_tau(alpha)
        assert abs(ts.s - s_oracle) < 1e-12 * s_oracle


def test_solve_tau_bracket_independence():
    a = bl.solve_tau(0.25, bracket=(1e-6, 50.0))
    b = bl.solve_tau(0.25, bracket=(1e-3, 10.0))
    assert abs(a.s - b.s) < 1e-10


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


def test_log_product_small_s_no_underflow():
    # raw product underflows at s this small; the log form must stay finite
    val = bl.log_multiplier_product(0.01)
    assert math.isfinite(val)
    assert val < -400.0


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
    assert abs(bl.eval_blaschke(B, a3, target_err=1e-10)) < 1e-10
    assert abs(bl.eval_blaschke(B, -a3, target_err=1e-10)) < 1e-10


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


def test_circle_eval_exclusion_zone():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    with pytest.raises(TooCloseToSingularity):
        bl.circle_eval_many(B, 1e-4)
    with pytest.raises(TooCloseToSingularity):
        bl.circle_eval_many(B, math.pi + 1e-4)


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
    vals = bl.eval_blaschke(B, np.exp(1j * th), target_err=1e-10)
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


def _per_term_loop(B, th):
    """B(e^(i th)) and its angle by the per-term loop over a one-element
    array: the bitwise reference for one-point evaluation."""
    z = np.exp(1j * np.asarray([th]))
    n = int(np.max(bl.required_terms(B, z, bl.DEFAULT_TARGET_ERR)))
    z2 = z * z
    out = z.copy()
    for an in B.zeros[:n]:
        a2 = an * an
        out *= (a2 - z2) / (1.0 - a2 * z2)
    return out[0], (np.angle(out) % (2.0 * math.pi))[0]


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_one_point_eval_matches_per_term_loop(alpha):
    B = bl.BlaschkeProduct.from_alpha(alpha)
    rng = np.random.default_rng(int(alpha * 100))
    near = rng.uniform(2e-3, 0.05, 500)  # within 0.05 of +-1
    th = np.concatenate([rng.uniform(0.05, math.pi - 0.05, 2000),
                         near, math.pi - near, math.pi + near, 2.0 * math.pi - near])
    for t in th.tolist():
        value, angle = _per_term_loop(B, t)
        z = np.exp(1j * np.asarray([t]))
        assert bl.eval_blaschke(B, z, bl.DEFAULT_TARGET_ERR)[0] == value
        assert bl.circle_eval_many(B, np.asarray([t]))[0] == angle


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
    # with no error to certify the bound is log(0); the scalar path takes
    # numpy's IEEE answer instead of failing in math.log
    B = bl.BlaschkeProduct.from_alpha(0.4)
    with np.errstate(divide="ignore"):
        assert bl.required_terms(B, 1j, math.inf) == \
            bl.required_terms(B, np.array([1j]), math.inf)[0]
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(OutOfRange):
            bl.required_terms(B, 1j, bad)


@pytest.mark.parametrize("theta, target_err, message", [
    (2e-3, 1e-13, "cannot certify"),
    (1e-4, bl.DEFAULT_TARGET_ERR, "within"),
    (math.pi + 1e-4, bl.DEFAULT_TARGET_ERR, "within"),
])
def test_one_point_and_vector_paths_refuse_alike(theta, target_err, message):
    B = bl.BlaschkeProduct.from_alpha(0.4)
    with pytest.raises(TooCloseToSingularity, match=message) as one:
        bl.circle_eval_many(B, np.array([theta]), target_err)
    with pytest.raises(TooCloseToSingularity) as many:
        bl.circle_eval_many(B, np.array([1.0, theta]), target_err)
    assert str(one.value) == str(many.value)


def _first_angle_outside(inside: float, outside: float) -> float:
    """The float between the two angles, on the outside's side, closest to
    the zone's edge: bisection on the zone mask itself."""
    while True:
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            return outside
        if bl.in_exclusion_zone(np.exp(1j * mid)):
            inside = mid
        else:
            outside = mid


@pytest.mark.parametrize("alpha", [1e-300, 1e-6, 0.1, 0.25, 0.4, 0.499])
def test_circle_target_certifies_every_angle_outside_the_zone(alpha):
    # circle maps evaluate the product to DEFAULT_TARGET_ERR, and circle-stats
    # reads every refusal of an orbit step as the exclusion zone: no angle
    # just outside the zone may be refused as uncertifiable
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
    assert not bl.in_exclusion_zone(np.exp(1j * th)).any()
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
        bl.circle_eval_many(B, 1e-5)
