import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatoulab import map_zoo as mz
from fatoulab.errors import (
    ExponentOverflow,
    NoSignChange,
    OutOfRange,
    SingularityHit,
    UnsupportedMap,
)

ALPHAS = [0.1, 0.25, 0.4]


def test_exp_baker_fixes_one():
    f = mz.exp_baker(0.4)
    assert mz.evaluate(f, 1.0).to_complex() == 1.0 + 0.0j


def test_sine_model_fixes_zero():
    F = mz.sine_model(0.4)
    assert mz.evaluate(F, 0.0).to_complex() == 0.0 + 0.0j


def test_exp_baker_circle_closed_form():
    # on the unit circle z - 1/z = 2i sin(theta), so f(e^{i theta}) = e^{2 i alpha sin theta}
    f = mz.exp_baker(0.4)
    theta = 0.7
    got = mz.evaluate(f, cmath.exp(1j * theta)).to_complex()
    want = cmath.exp(2j * 0.4 * math.sin(theta))
    assert abs(got - want) < 1e-13
    assert abs(abs(got) - 1.0) < 1e-15


def test_unit_circle_invariance():
    f = mz.exp_baker(0.31)
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.0, 2.0 * math.pi, 200):
        val = mz.evaluate(f, cmath.exp(1j * theta)).to_complex()
        assert abs(abs(val) - 1.0) < 1e-14


def test_semiconjugacy_residual():
    # f(e^{iz}) = e^{iF(z)} for f = exp-Baker, F = sine model.  At alpha =
    # 0.25 the values stay below e^5 on the strip |Im z| <= 3 and the
    # absolute residual sits two decades under the bound.
    alpha = 0.25
    f = mz.exp_baker(alpha)
    F = mz.sine_model(alpha)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-math.pi, math.pi, 1000) + 1j * rng.uniform(-3.0, 3.0, 1000)
    worst = 0.0
    for z in zs:
        lhs = mz.evaluate(f, cmath.exp(1j * z)).to_complex()
        rhs = cmath.exp(1j * mz.evaluate(F, z).to_complex())
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_semiconjugacy_residual_scaled_alpha_04():
    # At alpha = 0.4 the strip corners reach |f| ~ e^8 ~ 3000 and the ulp of
    # e^{iz} alone forces absolute residuals of a few 1e-12; the identity
    # still holds to machine precision relative to the value.
    alpha = 0.4
    f = mz.exp_baker(alpha)
    F = mz.sine_model(alpha)
    rng = np.random.default_rng(6)
    zs = rng.uniform(-math.pi, math.pi, 1000) + 1j * rng.uniform(-3.0, 3.0, 1000)
    worst = 0.0
    for z in zs:
        lhs = mz.evaluate(f, cmath.exp(1j * z)).to_complex()
        rhs = cmath.exp(1j * mz.evaluate(F, z).to_complex())
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-12


@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_semiconjugacy_property(z):
    z = complex(z.real, max(-3.0, min(3.0, z.imag)))
    f = mz.exp_baker(0.25)
    F = mz.sine_model(0.25)
    lhs = mz.evaluate(f, cmath.exp(1j * z)).to_complex()
    rhs = cmath.exp(1j * mz.evaluate(F, z).to_complex())
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_multiplier_at_fixed_points(alpha):
    df = mz.derivative(mz.exp_baker(alpha), 1.0).to_complex()
    dF = mz.derivative(mz.sine_model(alpha), 0.0).to_complex()
    assert abs(df - 2.0 * alpha) < 1e-14 * 2.0 * alpha
    assert abs(dF - 2.0 * alpha) < 1e-14 * 2.0 * alpha
    assert abs(df - dF) < 1e-14


def _finite_difference(spec, z, h=1e-6):
    fp = mz.evaluate(spec, z + h).to_complex()
    fm = mz.evaluate(spec, z - h).to_complex()
    return (fp - fm) / (2.0 * h)


@pytest.mark.parametrize("spec,region", [
    (mz.exp_baker(0.4), (0.5, 1.8)),
    (mz.sine_model(0.3), (0.1, 2.0)),
    (mz.power_map(3), (0.3, 1.5)),
    (mz.rotation(1.1), (0.1, 2.0)),
    (mz.mobius(2.0, 1.0, 0.3, 1.0), (0.1, 1.5)),
    (mz.finite_blaschke([0.3, -0.2 + 0.4j], cmath.exp(0.3j)), (0.05, 0.9)),
    (mz.keen(0.2, -1.0), (0.5, 1.8)),
    (mz.mcmullen(2, 2, 1e-4), (0.5, 1.5)),
])
def test_derivative_vs_finite_differences(spec, region):
    rng = np.random.default_rng(17)
    lo, hi = region
    count = 0
    while count < 100:
        r = rng.uniform(lo, hi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z = r * cmath.exp(1j * phi)
        want = mz.derivative(spec, z).to_complex()
        got = _finite_difference(spec, z)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
        count += 1


def test_power_derivative_trivial():
    assert mz.derivative(mz.power_map(2), 1.0).to_complex() == 2.0 + 0.0j


def test_orbit_constant_at_fixed_point():
    f = mz.exp_baker(0.4)
    orb = mz.orbit(f, 1.0, n_max=10, escape_radius=1e6, target=(1.0, 1e-9))
    assert orb.terminal == mz.TERMINAL_CONVERGED
    assert all(p.to_complex() == 1.0 for p in orb.points)


def test_orbit_circle_attracts_to_one():
    # 1-D oracle: the circle dynamics is theta -> 2 alpha sin theta
    alpha = 0.4
    theta = 0.3
    for _ in range(200):
        theta = 2.0 * alpha * math.sin(theta)
    assert abs(theta) < 1e-9  # oracle confirms attraction to angle 0

    f = mz.exp_baker(alpha)
    orb = mz.orbit(f, cmath.exp(0.3j), n_max=200, escape_radius=1e6,
                   target=(1.0, 1e-9))
    assert orb.terminal == mz.TERMINAL_CONVERGED
    assert abs(orb.points[-1].to_complex() - 1.0) <= 1e-9


def test_orbit_mcmullen_escapes():
    f = mz.mcmullen(2, 2, 1e-4)
    orb = mz.orbit(f, 10.0, n_max=50, escape_radius=1e8)
    assert orb.terminal == mz.TERMINAL_ESCAPED
    assert orb.escape_end == mz.END_INFINITY


def test_orbit_exp_baker_escapes_to_zero_end():
    f = mz.exp_baker(0.4)
    orb = mz.orbit(f, -5.0, n_max=30, escape_radius=1e3)
    assert orb.terminal == mz.TERMINAL_ESCAPED
    assert orb.escape_end == mz.END_ZERO


def test_orbit_starts_on_singularity():
    f = mz.exp_baker(0.4)
    orb = mz.orbit(f, 0.0, n_max=5, escape_radius=1e6)
    assert orb.terminal == mz.TERMINAL_HIT_SINGULARITY
    assert len(orb.points) == 1


def test_orbit_points_reproduce_successors():
    f = mz.exp_baker(0.35)
    orb = mz.orbit(f, 0.5 + 0.2j, n_max=8, escape_radius=1e6)
    for a, b in zip(orb.points, orb.points[1:]):
        assert mz.evaluate(f, a).to_complex() == b.to_complex()


def test_orbit_completed():
    f = mz.rotation(0.5)
    orb = mz.orbit(f, 1.0, n_max=7, escape_radius=10.0)
    assert orb.terminal == mz.TERMINAL_COMPLETED
    assert len(orb.points) == 8


def test_critical_data_exp_baker():
    alpha = 0.4
    f = mz.exp_baker(alpha)
    data = mz.critical_data(f)
    points = sorted((p.to_complex() for p, _ in data), key=lambda z: z.imag)
    assert abs(points[0] - (-1j)) < 1e-15
    assert abs(points[1] - 1j) < 1e-15
    for p, v in data:
        assert abs(mz.derivative(f, p.to_complex()).to_complex()) < 1e-14
        want = cmath.exp(2j * alpha) if p.im > 0 else cmath.exp(-2j * alpha)
        assert abs(v.to_complex() - want) < 1e-14


def test_critical_data_sine_power():
    data = mz.critical_data(mz.sine_model(0.3))
    vals = sorted(v.to_complex().real for _, v in data)
    assert vals == pytest.approx([-0.6, 0.6], abs=1e-15)
    data = mz.critical_data(mz.power_map(2))
    assert any(p.at_infinity for p, _ in data)
    assert any(p.to_complex() == 0 for p, _ in data if not p.at_infinity)
    assert mz.critical_data(mz.power_map(1)) == []


def test_critical_data_mcmullen():
    f = mz.mcmullen(2, 2, 0.01)
    data = mz.critical_data(f)
    finite = [(p, v) for p, v in data if not p.at_infinity and p.to_complex() != 0]
    assert len(finite) == 4  # z^4 = l c / m
    for p, _ in finite:
        assert abs(mz.derivative(f, p.to_complex()).to_complex()) < 1e-12


def test_critical_data_finite_blaschke():
    f = mz.finite_blaschke([0.4, -0.3 + 0.2j])
    data = mz.critical_data(f)
    assert data
    for p, v in data:
        assert abs(mz.derivative(f, p.to_complex()).to_complex()) < 1e-9
        assert abs(mz.evaluate(f, p.to_complex()).to_complex() - v.to_complex()) < 1e-12


def test_critical_data_keen_unsupported():
    with pytest.raises(UnsupportedMap):
        mz.critical_data(mz.keen(0.2, -1.0))


def test_exponent_cap():
    f = mz.exp_baker(0.4)
    with pytest.raises(ExponentOverflow) as exc:
        mz.evaluate(f, 2000.0)
    assert exc.value.sign == 1
    with pytest.raises(ExponentOverflow) as exc:
        mz.evaluate(f, -2000.0)
    assert exc.value.sign == -1


def test_singularity_hit():
    f = mz.exp_baker(0.4)
    with pytest.raises(SingularityHit):
        mz.evaluate(f, 0.0)
    with pytest.raises(SingularityHit):
        mz.evaluate(f, mz.INFINITY)


def test_point_at_infinity_rules():
    assert mz.evaluate(mz.power_map(2), mz.INFINITY).at_infinity
    assert mz.evaluate(mz.mcmullen(2, 2, 1.0), 0.0).at_infinity
    with pytest.raises(OutOfRange):
        mz.ComplexPoint(math.inf, 0.0)
    with pytest.raises(OutOfRange):
        mz.INFINITY.to_complex()


def test_bisect_examples():
    assert mz.bisect(lambda x: x - 0.5, 0.0, 1.0, 1e-12) == pytest.approx(0.5, abs=1e-12)
    # oracle: library square root
    root = mz.bisect(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12)
    assert abs(root - math.sqrt(2.0)) < 1e-11
    # oracle: artanh(0.3) in closed form
    root = mz.bisect(lambda x: math.tanh(x) - 0.3, 0.0, 1.0, 1e-13)
    assert abs(root - 0.5 * math.log(1.3 / 0.7)) < 1e-12


def test_bisect_no_sign_change():
    with pytest.raises(NoSignChange):
        mz.bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-6)


@given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0))
@settings(max_examples=100, deadline=None)
def test_bisect_monotone_property(shift, slope):
    root = mz.bisect(lambda x: slope * (x - shift), -5.0, 5.0, 1e-10)
    assert abs(root - shift) < 1e-9


def test_validation_errors():
    with pytest.raises(OutOfRange):
        mz.exp_baker(0.7)
    with pytest.raises(OutOfRange):
        mz.sine_model(0.0)
    with pytest.raises(OutOfRange):
        mz.mobius(1.0, 2.0, 2.0, 4.0)  # ad - bc = 0
    with pytest.raises(OutOfRange):
        mz.finite_blaschke([1.5])
    with pytest.raises(OutOfRange):
        mz.finite_blaschke([0.5], rotation_factor=2.0)
    with pytest.raises(OutOfRange):
        mz.mcmullen(2, 2, 0.0)


ONE_OF_EACH_KIND = [
    mz.exp_baker(0.4),
    mz.sine_model(0.1),
    mz.power_map(5),
    mz.rotation(2.2),
    mz.mobius(1.0, 0.5, 0.5, 1.0),
    mz.finite_blaschke([0.3, -0.2 + 0.4j], cmath.exp(0.3j)),
    mz.keen(0.2, -1.0),
    mz.mcmullen(3, 2, 0.5 + 0.1j),
]


@pytest.mark.parametrize("spec", ONE_OF_EACH_KIND)
def test_json_round_trip(spec):
    back = mz.spec_from_json(spec.to_json())
    assert back == spec
    # the flat spelling puts the parameters beside "kind"
    obj = mz.spec_to_dict(spec)
    assert mz.spec_from_dict(dict(obj["params"], kind=obj["kind"])) == spec


@pytest.mark.parametrize("spec", ONE_OF_EACH_KIND)
def test_evaluate_many_matches_evaluate(spec):
    # the array path rounds some quotients and products differently from
    # the scalar path's CPython arithmetic, by at most a few ulp; atol
    # covers values that cancel to below 1 (mcmullen has zeros here)
    rng = np.random.default_rng(23)
    z = rng.uniform(0.3, 2.0, 500) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 500))
    want = np.array([mz.evaluate(spec, complex(v)).to_complex() for v in z])
    np.testing.assert_allclose(mz.evaluate_many(spec, z), want, rtol=1e-15, atol=1e-15)


def test_keen_derivative_finite_difference():
    f = mz.keen(0.2, -1.0)
    z = 0.8 + 0.3j
    want = mz.derivative(f, z).to_complex()
    assert abs(_finite_difference(f, z) - want) < 1e-6 * max(1.0, abs(want))
