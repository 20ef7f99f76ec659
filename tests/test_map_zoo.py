import cmath
import json
import math

import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatoulab import map_zoo as mz
from fatoulab import renderer as rd
from fatoulab.errors import (
    ExponentOverflow,
    NoSignChange,
    OutOfRange,
)

ALPHAS = [0.1, 0.25, 0.4]


def test_exp_baker_fixes_one():
    f = mz.exp_baker(0.4)
    assert mz.evaluate(f, 1.0) == 1.0 + 0.0j


def test_sine_model_fixes_zero():
    F = mz.sine_model(0.4)
    assert mz.evaluate(F, 0.0) == 0.0 + 0.0j


def test_exp_baker_circle_closed_form():
    # on the unit circle z - 1/z = 2i sin(theta), so f(e^{i theta}) = e^{2 i alpha sin theta}
    f = mz.exp_baker(0.4)
    theta = 0.7
    got = mz.evaluate(f, cmath.exp(1j * theta))
    want = cmath.exp(2j * 0.4 * math.sin(theta))
    assert abs(got - want) < 1e-13
    assert abs(abs(got) - 1.0) < 1e-15


def test_unit_circle_invariance():
    f = mz.exp_baker(0.31)
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.0, 2.0 * math.pi, 200):
        val = mz.evaluate(f, cmath.exp(1j * theta))
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
        lhs = mz.evaluate(f, cmath.exp(1j * z))
        rhs = cmath.exp(1j * mz.evaluate(F, z))
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
        lhs = mz.evaluate(f, cmath.exp(1j * z))
        rhs = cmath.exp(1j * mz.evaluate(F, z))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-12


@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_semiconjugacy_property(z):
    z = complex(z.real, max(-3.0, min(3.0, z.imag)))
    f = mz.exp_baker(0.25)
    F = mz.sine_model(0.25)
    lhs = mz.evaluate(f, cmath.exp(1j * z))
    rhs = cmath.exp(1j * mz.evaluate(F, z))
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_multiplier_at_fixed_points(alpha):
    df = mz.derivative(mz.exp_baker(alpha), 1.0)
    dF = mz.derivative(mz.sine_model(alpha), 0.0)
    assert abs(df - 2.0 * alpha) < 1e-14 * 2.0 * alpha
    assert abs(dF - 2.0 * alpha) < 1e-14 * 2.0 * alpha
    assert abs(df - dF) < 1e-14


def _finite_difference(spec, z, h=1e-6):
    fp = mz.evaluate(spec, z + h)
    fm = mz.evaluate(spec, z - h)
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
        want = mz.derivative(spec, z)
        got = _finite_difference(spec, z)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
        count += 1


def test_power_derivative_trivial():
    assert mz.derivative(mz.power_map(2), 1.0) == 2.0 + 0.0j


# Orbits of the plane maps are classified one point at a time by the
# renderer's per-pixel contract.


def _classify_one(spec, z0, max_iter, escape_radius):
    verdict, steps = rd.classify_points(spec, [z0], max_iter,
                                        escape_radius=escape_radius)
    return int(verdict[0]), int(steps[0])


def _steps_to_attraction(spec, z0, escape_radius):
    """The first k at which the orbit of z0, iterated with the scalar
    evaluator, lies inside the radius of the kind's attraction test."""
    target, radius = rd._attraction_test(spec, rd.DEFAULT_TOL, escape_radius, None)
    z, k = complex(z0), 0
    while abs(z - target) >= radius:
        z, k = mz.evaluate(spec, z), k + 1
    return k


def test_orbit_constant_at_fixed_point():
    assert _classify_one(mz.exp_baker(0.4), 1.0, 10, 1e6) == (rd.ATTRACTED, 0)


def test_orbit_circle_attracts_to_one():
    # 1-D oracle: the circle dynamics is theta -> 2 alpha sin theta
    # from an angle whose point lies outside the trapping disk
    alpha = 0.4
    theta = 2.0
    for _ in range(200):
        theta = 2.0 * alpha * math.sin(theta)
    assert abs(theta) < 1e-9  # oracle confirms attraction to angle 0

    f = mz.exp_baker(alpha)
    steps = _steps_to_attraction(f, cmath.exp(2.0j), 1e6)
    assert steps > 0
    assert _classify_one(f, cmath.exp(2.0j), 200, 1e6) == (rd.ATTRACTED, steps)


def test_orbit_mcmullen_escapes():
    f = mz.mcmullen(2, 2, 1e-4)
    assert _classify_one(f, 10.0, 50, 1e8) == (rd.ESCAPED_INFINITY, 3)


def test_orbit_exp_baker_escapes_to_zero_end():
    assert _classify_one(mz.exp_baker(0.4), -5.0, 30, 1e3) == (rd.ESCAPED_ZERO, 4)


def test_orbit_starts_on_singularity():
    assert _classify_one(mz.exp_baker(0.4), 0.0, 5, 1e6) == (rd.SINGULAR, 0)


def test_orbit_points_reproduce_successors():
    # each successor from the scalar evaluator is one step closer to the
    # verdict of the point it came from
    f = mz.exp_baker(0.35)
    z = 4.0 + 0.5j
    steps = _steps_to_attraction(f, z, 1e6)
    assert steps >= 6
    for k in range(6):
        assert _classify_one(f, z, 200, 1e6) == (rd.ATTRACTED, steps - k)
        z = mz.evaluate(f, z)


def test_orbit_completed():
    # the budget runs out before the orbit reaches the attraction disk:
    # 3 lies just inside the repelling fixed point of f on the positive axis
    f = mz.exp_baker(0.4)
    assert _steps_to_attraction(f, 3.0, 1e6) > 7
    assert _classify_one(f, 3.0, 7, 1e6) == (rd.UNDECIDED, 0)


# Critical points with their closed-form values: f' vanishes there.


def test_critical_points_exp_baker():
    # the critical points are +-i, with values exp(+-2 i alpha)
    alpha = 0.4
    f = mz.exp_baker(alpha)
    for cp in (1j, -1j):
        assert abs(mz.derivative(f, cp)) < 1e-14
        want = cmath.exp(2j * alpha * cp.imag)
        assert abs(mz.evaluate(f, cp) - want) < 1e-14


def test_critical_points_sine_power():
    # sine_model: pi/2 + k pi with values +-2 alpha; power: the origin
    F = mz.sine_model(0.3)
    for cp, want in ((math.pi / 2, 0.6), (-math.pi / 2, -0.6)):
        assert abs(mz.derivative(F, cp)) < 1e-15
        assert mz.evaluate(F, cp) == pytest.approx(want, abs=1e-15)
    assert mz.derivative(mz.power_map(2), 0.0) == 0
    assert mz.derivative(mz.power_map(1), 0.0) == 1


def test_critical_points_mcmullen():
    # f' = 0 at the four roots of z^4 = l c / m
    f = mz.mcmullen(2, 2, 0.01)
    base = (2 * 0.01 / 2) ** 0.25
    for j in range(4):
        cp = base * cmath.exp(0.5j * math.pi * j)
        assert abs(mz.derivative(f, cp)) < 1e-12


def test_critical_points_finite_blaschke():
    # the critical points are the finite roots of P'Q - PQ' for
    # B = P/Q, P = prod(z - a), Q = prod(1 - conj(a) z)
    zeros = [0.4, -0.3 + 0.2j]
    f = mz.finite_blaschke(zeros)
    P = Q = np.array([1.0 + 0.0j])
    for a in zeros:
        P = npoly.polymul(P, [-a, 1.0])
        Q = npoly.polymul(Q, [1.0, -complex(a).conjugate()])
    num = npoly.polysub(npoly.polymul(npoly.polyder(P), Q),
                        npoly.polymul(P, npoly.polyder(Q)))
    roots = npoly.polyroots(num)
    assert roots.size
    for cp in roots:
        assert abs(mz.derivative(f, complex(cp))) < 1e-9


def test_exponent_cap():
    f = mz.exp_baker(0.4)
    with pytest.raises(ExponentOverflow, match="above cap"):
        mz.evaluate(f, 2000.0)
    with pytest.raises(ExponentOverflow, match="below cap"):
        mz.evaluate(f, -2000.0)


def test_singularity_hit():
    # the essential singularity 0 of exp_baker and keen and the pole 0 of
    # mcmullen divide by zero in CPython's complex arithmetic
    for spec in (mz.exp_baker(0.4), mz.keen(0.2, -1.0), mz.mcmullen(2, 2, 1.0)):
        with pytest.raises(ZeroDivisionError):
            mz.evaluate(spec, 0.0)
    with pytest.raises(ZeroDivisionError):
        mz.derivative(mz.mcmullen(2, 2, 1.0), 0.0)


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
    for tol in (0.0, math.nan):
        with pytest.raises(OutOfRange, match="tol > 0"):
            mz.bisect(lambda x: x - 0.5, 0.0, 1.0, tol)


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


# The same specs as literal JSON, in the flat spelling; an integer field may
# be written as a whole float (mcmullen's m).
ONE_OF_EACH_KIND_JSON = [
    '{"kind": "exp_baker", "alpha": 0.4}',
    '{"kind": "sine_model", "alpha": 0.1}',
    '{"kind": "power", "d": 5}',
    '{"kind": "rotation", "theta": 2.2}',
    '{"kind": "mobius", "a": 1, "b": [0.5, 0], "c": 0.5, "d": [1.0, 0.0]}',
    '{"kind": "finite_blaschke", "zeros": [0.3, [-0.2, 0.4]],'
    ' "rotation": [0.955336489125606, 0.29552020666133955]}',
    '{"kind": "keen", "alpha": 0.2, "lambda": -1.0}',
    '{"kind": "mcmullen", "m": 3.0, "l": 2, "c": [0.5, 0.1]}',
]


@pytest.mark.parametrize("spec", list(zip(ONE_OF_EACH_KIND, ONE_OF_EACH_KIND_JSON)))
def test_json_round_trip(spec):
    # literal JSON parses back to the spec, with the parameters beside
    # "kind" (flat) or under "params" (nested)
    want, text = spec
    flat = json.loads(text)
    nested = {"kind": flat.pop("kind"), "params": flat}
    assert mz.spec_from_dict(json.loads(text)) == want
    assert mz.spec_from_dict(nested) == want


@pytest.mark.parametrize("spec", ONE_OF_EACH_KIND)
def test_evaluate_many_matches_evaluate(spec):
    # the array path rounds some quotients and products differently from
    # the scalar path's CPython arithmetic, by at most a few ulp; atol
    # covers values that cancel to below 1 (mcmullen has zeros here)
    rng = np.random.default_rng(23)
    z = rng.uniform(0.3, 2.0, 500) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 500))
    want = np.array([mz.evaluate(spec, complex(v)) for v in z])
    np.testing.assert_allclose(mz.evaluate_many(spec, z), want, rtol=1e-15, atol=1e-15)
    # one point type: a Python complex out, also for a numpy scalar in
    assert {type(f(spec, z[0])) for f in (mz.evaluate, mz.derivative)} == {complex}


def test_keen_derivative_finite_difference():
    f = mz.keen(0.2, -1.0)
    z = 0.8 + 0.3j
    want = mz.derivative(f, z)
    assert abs(_finite_difference(f, z) - want) < 1e-6 * max(1.0, abs(want))
