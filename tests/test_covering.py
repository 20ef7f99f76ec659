import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatoulab import covering as cov
from fatoulab import map_zoo as mz
from fatoulab.errors import OutOfRange, OutsideDisk, UnsupportedMap

R_E = math.e


def test_cover_eval_center():
    m = cov.annulus_model(R_E)
    assert cov.cover_eval(m, 0.0) == 1.0 + 0.0j


@given(st.floats(-0.99, 0.99))
@settings(max_examples=100, deadline=None)
def test_real_diameter_covers_core_circle(t):
    m = cov.annulus_model(R_E)
    assert abs(abs(cov.cover_eval(m, t)) - 1.0) < 1e-14


def test_cover_eval_independent_composition_oracle():
    # oracle: exp(i c * (log((1+z)/(1-z)) / 2)) assembled from scratch
    m = cov.annulus_model(R_E)
    z = 0.5j
    want = cmath.exp(1j * m.scale * 0.5 * cmath.log((1 + z) / (1 - z)))
    assert abs(cov.cover_eval(m, z) - want) < 1e-14


def test_cover_image_inside_annulus():
    m = cov.annulus_model(2.0)
    rng = np.random.default_rng(3)
    z = rng.uniform(-0.9, 0.9, 500) + 1j * rng.uniform(-0.9, 0.9, 500)
    z = z[np.abs(z) < 0.95]
    w = cov.cover_eval(m, z)
    assert np.all(np.abs(w) > 0.5) and np.all(np.abs(w) < 2.0)


def test_outside_disk_rejected():
    m = cov.annulus_model(R_E)
    with pytest.raises(OutsideDisk):
        cov.cover_eval(m, 1.0 + 0.0j)
    with pytest.raises(OutsideDisk):
        cov.deck_apply(m, 1.2j)


def test_deck_invariance():
    # The deck generator shifts artanh z by a full period (~4.93 for R = e),
    # so deck images land within ~1e-3 of the fixed point +1, where the
    # covering derivative |pi'| = c|w|/|1-z^2| is large.  The composition
    # cannot beat |pi'(deck z)| * ulp, so the tolerance is conditioning-aware;
    # on the well-conditioned subset the plain 1e-12 bound must hold.
    m = cov.annulus_model(R_E)
    rng = np.random.default_rng(4)
    z = rng.uniform(-0.7, 0.7, 800) + 1j * rng.uniform(-0.7, 0.7, 800)
    # points near -1 are carried to mild positions by the (positive) deck
    # shift, giving a well-conditioned subsample
    band = -rng.uniform(0.7, 0.93, 200) + 1j * rng.uniform(-0.05, 0.05, 200)
    z = np.concatenate([z, band])
    z = z[np.abs(z) < 0.95]
    g = cov.deck_apply(m, z)
    w = cov.cover_eval(m, z)
    res = np.abs(cov.cover_eval(m, g) - w)
    floor = m.scale * np.abs(w) / np.abs(1.0 - g * g) * 2.3e-16
    assert np.all(res <= np.maximum(1e-12, 4.0 * floor))
    good = floor < 2.5e-13
    assert good.sum() > 100
    assert res[good].max() < 1e-12


def test_deck_zero_lands_one_period_away():
    # artanh(deck(0)) * c = 2 pi, the deck translation length upstairs
    m = cov.annulus_model(R_E)
    g0 = cov.deck_apply(m, 0.0)
    assert abs(m.scale * math.atanh(g0.real) - 2.0 * math.pi) < 1e-12
    assert abs(g0.imag) < 1e-15


def test_deck_generator_fixes_limit_set():
    # exact in CPython's complex arithmetic, (1 + t0)/(t0 + 1); the same
    # formula on one-element numpy arrays misses by an ulp at R = 1.5, 2, 3
    for R in (1.5, 2.0, 2.5, math.e, 3.0, 10.0):
        spec = cov.annulus_model(R).deck_generator
        for xi in (1.0, -1.0):
            assert mz.evaluate(spec, xi) == xi, R
    spec = cov.annulus_model(2.5).deck_generator
    fps = cov.mobius_boundary_fixed_points(spec)
    assert len(fps) == 2
    assert {round(p.real) for p, _ in fps} == {1, -1}


def test_punctured_disk_model():
    m = cov.punctured_disk_model()
    assert abs(cov.cover_eval(m, 0.0) - math.exp(-1.0)) < 1e-15
    rng = np.random.default_rng(9)
    z = rng.uniform(-0.6, 0.6, 300) + 1j * rng.uniform(-0.6, 0.6, 300)
    z = z[np.abs(z) < 0.9]
    w = cov.cover_eval(m, z)
    assert np.all(np.abs(w) < 1.0) and np.all(np.abs(w) > 0.0)
    res = np.abs(cov.cover_eval(m, cov.deck_apply(m, z)) - w)
    assert res.max() < 1e-11
    assert m.limit_set == (1.0 + 0.0j,)


# ---------------------------------------------------------------------------
# Lifts


def test_rotation_lift_commutes():
    m = cov.annulus_model(R_E)
    theta = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0
    rot = mz.rotation(theta)
    g = cov.lift_map(m, m, rot)
    assert g.kind == mz.MOBIUS
    rng = np.random.default_rng(21)
    z = rng.uniform(-0.7, 0.7, 100) + 1j * rng.uniform(-0.7, 0.7, 100)
    z = z[np.abs(z) < 0.95]
    worst = 0.0
    for w in z:
        lhs = cov.cover_eval(m, mz.evaluate(g, w))
        rhs = mz.evaluate(rot, cov.cover_eval(m, w))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_rotation_lift_is_hyperbolic():
    m = cov.annulus_model(R_E)
    g = cov.lift_map(m, m, mz.rotation(1.0))
    fps = cov.mobius_boundary_fixed_points(g)
    assert len(fps) == 2
    for p, der in fps:
        assert abs(der.imag) < 1e-12
        assert abs(der.real - 1.0) > 1e-6


def test_zero_rotation_lifts_to_identity():
    m = cov.annulus_model(2.0)
    g = cov.lift_map(m, m, mz.rotation(0.0))
    assert g == mz.identity_mobius()


def test_power_chain_lift_is_identity():
    m1 = cov.annulus_model(R_E)
    m2 = cov.annulus_model(R_E ** 2)
    pw = mz.power_map(2)
    g = cov.lift_map(m1, m2, pw)
    assert g == mz.identity_mobius()
    rng = np.random.default_rng(8)
    z = rng.uniform(-0.7, 0.7, 100) + 1j * rng.uniform(-0.7, 0.7, 100)
    z = z[np.abs(z) < 0.95]
    worst = 0.0
    for w in z:
        lhs = cov.cover_eval(m2, mz.evaluate(g, w))
        rhs = mz.evaluate(pw, cov.cover_eval(m1, w))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_unsupported_lifts():
    m = cov.annulus_model(2.0)
    with pytest.raises(UnsupportedMap):
        cov.lift_map(m, cov.annulus_model(3.0), mz.rotation(0.4))
    with pytest.raises(UnsupportedMap):
        cov.lift_map(m, cov.annulus_model(3.9), mz.power_map(2))
    with pytest.raises(UnsupportedMap):
        cov.lift_map(m, m, mz.exp_baker(0.4))
    with pytest.raises(UnsupportedMap):
        cov.lift_map(cov.disk_model(), cov.disk_model(), mz.rotation(0.4))


# ---------------------------------------------------------------------------
# Radial classification


def test_radial_limit_set_is_bounded_type():
    m = cov.annulus_model(R_E)
    for xi in (1.0, -1.0):
        rc = cov.radial_classify(m, xi)
        assert rc.verdict == cov.VERDICT_BOUNDED
        # the radius covers the core circle at constant boundary distance
        assert rc.min_boundary_distance == pytest.approx(1.0 - 1.0 / R_E, abs=1e-9)


def test_radial_escaping_at_i():
    rc = cov.radial_classify(cov.annulus_model(R_E), 1j)
    assert rc.verdict == cov.VERDICT_ESCAPING
    assert rc.last_boundary_distance < 1e-6


def test_radial_disk_everything_escapes():
    m = cov.disk_model()
    for ang in np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False):
        assert cov.radial_classify(m, cmath.exp(1j * ang)).verdict == cov.VERDICT_ESCAPING


def test_radial_punctured_disk_escapes_even_at_limit_point():
    m = cov.punctured_disk_model()
    # the radius at the deck fixed point runs into the puncture, which is a
    # boundary component, so it is escaping as well
    assert cov.radial_classify(m, 1.0).verdict == cov.VERDICT_ESCAPING
    assert cov.radial_classify(m, -1.0).verdict == cov.VERDICT_ESCAPING
    assert cov.radial_classify(m, 1j).verdict == cov.VERDICT_ESCAPING


def test_radial_trichotomy_64_points():
    m = cov.annulus_model(R_E)
    verdicts = {}
    for k in range(64):
        xi = cmath.exp(2j * math.pi * k / 64)
        near_limit = min(abs(xi - 1.0), abs(xi + 1.0)) <= 0.05
        rc = cov.radial_classify(m, xi)
        verdicts[k] = (near_limit, rc.verdict)
    for k, (near, v) in verdicts.items():
        if near:
            assert v == cov.VERDICT_BOUNDED, k
        else:
            assert v == cov.VERDICT_ESCAPING, k
        assert v != cov.VERDICT_BUNGEE


def test_synthetic_bungee_trail():
    d = []
    for k in range(40):
        d.append(1e-8 if k % 2 == 0 else 0.01)
    rc = cov.classify_distance_trail(d)
    assert rc.verdict == cov.VERDICT_BUNGEE


def test_synthetic_undetermined_trail():
    # dips below eps once but then rises and stays mid-band: neither
    # monotone escape nor 3 crossings nor uniformly large
    d = [0.01] * 20 + [1e-8] + [1e-4] * 19
    rc = cov.classify_distance_trail(d)
    assert rc.verdict == cov.VERDICT_UNDETERMINED


def test_radial_classify_validation():
    m = cov.annulus_model(2.0)
    with pytest.raises(OutOfRange):
        cov.radial_classify(m, 0.5)
    # the thresholds need 0 < eps_escape < delta_bounded, in the one rule
    # and through the tracker
    for eps, delta in ((-1.0, 1e-3), (0.0, 1e-3), (1e-3, 1e-3), (1e-2, 1e-3)):
        with pytest.raises(OutOfRange, match="eps_escape"):
            cov.classify_distance_trail([0.5, 0.1], eps, delta)
        with pytest.raises(OutOfRange, match="eps_escape"):
            cov.radial_classify(m, 1j, eps_escape=eps, delta_bounded=delta)


# ---------------------------------------------------------------------------
# Pushforward measure


def test_radial_limit_formula_matches_deep_radius():
    m = cov.annulus_model(R_E)
    for phi in (0.3, 1.571, 2.0, 4.0, 5.9):
        comp, psi = cov.radial_limit_annulus(m, phi)
        w = cov.cover_eval(m, (1.0 - 2.0 ** -44) * cmath.exp(1j * phi))
        want_mod = 1.0 / R_E if comp == 1 else R_E
        assert abs(abs(w) - want_mod) < 1e-6
        assert abs(cmath.exp(1j * cmath.phase(w)) - cmath.exp(1j * psi)) < 1e-6


@pytest.mark.parametrize("phi", [
    math.pi - 2e-12, math.pi - 1e-13, math.pi, math.nextafter(math.pi, 4.0),
    math.pi + 1e-13, math.pi + 2e-12, 1e-13, 1e-300, 1e-310,
    2.0 * math.pi - 1e-15])
def test_radial_limit_near_the_limit_set(phi):
    # no clip: the semicircle is the sign of sin(phi) and the angle is
    # (c/2) log|cot(phi/2)| of the exact float phi, in 40-digit arithmetic
    mp = pytest.importorskip("mpmath")
    m = cov.annulus_model(R_E)
    comp, psi = cov.radial_limit_annulus(m, phi)
    with mp.workdps(40):
        x = mp.mpf(phi)
        assert comp == (1 if mp.sin(x) > 0 else 0)
        want = float((mp.mpf(m.scale) / 2 * mp.log(abs(mp.cot(x / 2)))) % (2 * mp.pi))
    assert abs(cmath.exp(1j * psi) - cmath.exp(1j * want)) < 1e-12


def test_radial_limit_at_zero_keeps_its_value():
    # phi = 0 has no limit; it reads as phi = 1e-12, as before the clips
    # were removed, so a sample drawn at exactly 0 stays in its bin
    m = cov.annulus_model(R_E)
    assert cov.radial_limit_annulus(m, 0.0) == cov.radial_limit_annulus(m, 1e-12)
    assert cov.radial_limit_annulus(m, 0.0) == (1, 5.465354959052398)
    comp, psi = cov.radial_limit_annulus(m, np.array([0.0, 2.0 * math.pi, 1e-13]))
    assert comp.tolist() == [1, 1, 1]
    assert psi[0] == psi[1] == 5.465354959052398 != psi[2]


def test_pushforward_mass_split_and_totals():
    m = cov.annulus_model(R_E)
    n = 200_000
    hist = cov.pushforward_measure(m, n, 32, seed=101)
    assert int(hist.counts.sum()) == n
    split = hist.component_masses()[0]
    sigma = math.sqrt(0.25 / n)
    assert abs(split - 0.5) < 3.0 * sigma


def test_pushforward_disk_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    m = cov.disk_model()
    n = 100_000
    (counts,) = cov.pushforward_measure(m, n, 64, seed=77).counts
    expected = n / 64.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < scipy_stats.chi2.ppf(0.999, 63)


def test_pushforward_annulus_sech_law():
    # The exit-angle law on each circle is the wrapped hyperbolic-secant
    # density p(psi) = (2/(pi c)) sech(2 psi / c): push uniform phi through
    # psi = (c/2) log|cot(phi/2)|.  (It is not uniform: the base point
    # pi(0) = 1 breaks rotational symmetry.)
    scipy_stats = pytest.importorskip("scipy.stats")
    m = cov.annulus_model(R_E)
    n = 200_000
    n_bins = 32
    hist = cov.pushforward_measure(m, n, n_bins, seed=55)

    def cdf(psi):
        return 0.5 + (2.0 / math.pi) * math.atan(math.tanh(psi / m.scale))

    # bin j collects unwrapped psi in [edges[j], edges[j+1]) + 2 pi k;
    # offsets |k| <= 4 exhaust the sech tails at double precision
    edges = 2.0 * math.pi * np.arange(n_bins + 1) / n_bins
    probs = np.zeros(n_bins)
    for j in range(n_bins):
        for k in range(-4, 5):
            off = 2.0 * math.pi * k
            probs[j] += cdf(edges[j + 1] + off) - cdf(edges[j] + off)
    probs /= probs.sum()
    for counts in hist.counts:
        total = counts.sum()
        expected = probs * total
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < scipy_stats.chi2.ppf(0.999, n_bins - 1)


def test_pushforward_punctured_disk_mass():
    m = cov.punctured_disk_model()
    hist = cov.pushforward_measure(m, 50_000, 16, seed=5)
    assert hist.counts[0].sum() == 50_000  # everything lands on the unit circle
    assert hist.counts[1].sum() == 0  # the puncture carries no harmonic mass


def test_pushforward_deterministic():
    m = cov.annulus_model(2.0)
    a = cov.pushforward_measure(m, 10_000, 16, seed=42)
    b = cov.pushforward_measure(m, 10_000, 16, seed=42)
    assert np.array_equal(a.counts, b.counts)


def test_pushforward_worker_split_merges_exactly():
    m = cov.annulus_model(2.0)
    full = cov.pushforward_measure(m, 4_000, 16, seed=42)
    lo = cov.pushforward_measure(m, 2_000, 16, seed=42)
    hi = cov.pushforward_measure(m, 2_000, 16, seed=42, sample_offset=2_000)
    assert np.array_equal(full.counts, lo.counts + hi.counts)


def test_deck_generator_is_parabolic_for_punctured_disk():
    m = cov.punctured_disk_model()
    spec = m.deck_generator
    assert abs(mz.evaluate(spec, 1.0) - 1.0) < 1e-15
    # parabolic: the boundary fixed point is unique with derivative 1
    fps = cov.mobius_boundary_fixed_points(spec)
    assert len(fps) == 1
    p, der = fps[0]
    assert abs(p - 1.0) < 1e-9
    assert abs(der - 1.0) < 1e-9


def test_pushforward_validation():
    m = cov.annulus_model(2.0)
    with pytest.raises(OutOfRange):
        cov.pushforward_measure(m, 0, 16, seed=1)
    with pytest.raises(OutOfRange):
        cov.pushforward_measure(m, 10, 0, seed=1)
