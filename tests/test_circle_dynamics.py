import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatoulab import blaschke as bl
from fatoulab import circle_dynamics as cd
from fatoulab import map_zoo as mz
from fatoulab import rng
from fatoulab.errors import (
    EmptyInput,
    OriginNotFixed,
    OutOfRange,
    TooCloseToSingularity,
)

TWO_PI = 2.0 * math.pi


def test_iterate_rotation():
    theta = 0.4
    orbit = cd.iterate(cd.rotation_map(theta), 0.0, 3)
    assert orbit == pytest.approx([theta, 2 * theta, 3 * theta], abs=1e-15)


def test_iterate_power_period_two():
    orbit = cd.iterate(mz.power_map(2), TWO_PI / 3.0, 4)
    want = [2 * TWO_PI / 3, TWO_PI / 3, 2 * TWO_PI / 3, TWO_PI / 3]
    assert orbit == pytest.approx(want, abs=1e-12)


def test_iterate_power_exact_angle_arithmetic():
    # doubling and fmod are both exact, so the iterated orbit equals
    # fmod(2^n theta0, 2 pi) bit-for-bit
    theta0 = 0.7305194381
    orbit = cd.iterate(mz.power_map(2), theta0, 12)
    for n, got in enumerate(orbit, start=1):
        assert got == math.fmod((2.0 ** n) * theta0, TWO_PI)


def test_iterate_mobius_monotone_convergence():
    # (z + t)/(1 + t z) attracts to angle 0; derivative there is (1-t)/(1+t) < 1
    m = cd.mobius_boundary_map(1.0, 0.6, 0.6, 1.0)
    orbit = cd.iterate(m, math.pi / 2.0, 30)
    assert all(b < a for a, b in zip(orbit, orbit[1:]))
    assert orbit[-1] < 1e-6


# sha256 of the bytes of a 500-step orbit from 0.9, of one application to a
# 4097-point arc sample, and of arc_spread's covered fractions; computed
# with numpy 2.4 on x86-64 Linux.  numpy's complex products and quotients
# round differently from CPython's, and its in-place and out-of-place array
# products differently from each other, so a change in how a formula is
# spelled can move these bytes without failing any tolerance test.
_GOLDEN_CIRCLE_MAPS = [
    ("mobius_hyperbolic", lambda: cd.mobius_boundary_map(1.0, 0.3, 0.3, 1.0),
     "c9428acf35c2dda55e17871113b3bb7db468dc0a6e9304022e5ee28b30bd8453",
     "ff67f5e861fb992ea966a1e43c61674aab0cf6f69bb47924b941b229b3c776da",
     "25ea4cbc839c75d8b7cfe7f67835114921e030dccc8cd8dc3e8a3ce873402b8b"),
    ("mobius_automorphism", lambda: cd.mobius_boundary_map(
        np.exp(0.5j), -np.exp(0.5j) * (0.3 + 0.2j), -(0.3 - 0.2j), 1.0),
     "a77fac7d39d3b096d6c1f4ba6a8a821f2481ad05610f2f346542468bae7bc5fb",
     "cab2da3f564b42ac47a78d3adee341a2c6a862cc9e655eae0ff93651ad252ee3",
     "054e64aa53bfa28dc8318883d73442fa94beef907931fea4e0fb84a2b56ffec8"),
    ("finite_blaschke_zero_at_origin",
     lambda: mz.finite_blaschke([0.0, 0.5 + 0.2j]),
     "bf6ded658a4146708304e47711c4c9e78933b033c16acd66d6a03d15e88e53b7",
     "ed5d0351e6132d27fd3d17b84a98db00c9322375156926a76d46f19cf4f55b26",
     "491b4fe55ee4fd8adc3ecdf6acf401c5ad267aa2b197a49a70bbe065f0dda861"),
    ("finite_blaschke_rotated", lambda: mz.finite_blaschke(
        [0.3 - 0.4j, -0.2 + 0.1j, 0.0], 0.6 + 0.8j),
     "dad74f80c460a095a324890e779e4eed0bffcbad5e367a96062cf1af494e6b5d",
     "1439f9cd03e04172ac5f83818c50f6b31b8bd2982a2166f636b6a5cabae98488",
     "62cd6cb7a26c11e5e9734256571ed8f6c1bff5bbcf6f82dd6137cf0ba2e0164e"),
]


@pytest.mark.parametrize("make, orbit_sha, image_sha, spread_sha",
                         [g[1:] for g in _GOLDEN_CIRCLE_MAPS],
                         ids=[g[0] for g in _GOLDEN_CIRCLE_MAPS])
def test_golden_circle_map_bytes(make, orbit_sha, image_sha, spread_sha):
    cmap = make()
    orbit = cd.iterate(cmap, 0.9, 500)
    assert hashlib.sha256(orbit.tobytes()).hexdigest() == orbit_sha
    th = 1.0 + np.arange(4097) * (0.3 / 4096)
    assert hashlib.sha256(cd.apply_map(cmap, th).tobytes()).hexdigest() == image_sha
    report = cd.arc_spread(cmap, (1.0, 0.3), 8, grid=2048)
    fractions = np.asarray(report.covered_fraction)
    assert hashlib.sha256(fractions.tobytes()).hexdigest() == spread_sha


# sha256 of the bytes of orbits from cd.iterate, computed with numpy 2.4 on
# x86-64 Linux.  The four Blaschke orbits (alpha = 0.4, theta0 = pi/8 + k pi/2,
# 100,000 points) are the benchmark's; they run in u = cot(theta/2).
_GOLDEN_BLASCHKE_ORBITS = [
    "41375efbe8288653c523f5d1a9bb0b69e764ac5e0c4e32c00e72662faab4940c",
    "82bc26c5499850dd347b9e2c73628d4b4949d15e5474e63f0c0ebd6ae3aceca5",
    "8c3b1bef8e7ea50158be2870a91ca8f72240e8aeec2f73b2d459968ed9d965d2",
    "49bdb41a04007b51a8ff734af8f82ceb7060375d39956f6ad717f8cdb9cd0b76",
]
_GOLDEN_ANGLE_ORBITS = [
    ("power2", lambda: mz.power_map(2),
     "a80a827b89053d3201bc62920a48b0f0d28a272a485c3044ffda2a150d737556"),
    ("power3", lambda: mz.power_map(3),
     "435478db95b79f902a8163ffc565bc99b1777c9166baddd8fa5937f9100de225"),
    ("rotation", lambda: cd.rotation_map(0.7),
     "348269c8506a4b54ed377eafb7a7c0a7731bf853dd0be1d01592483432e07d6c"),
]


@pytest.mark.parametrize("k", range(4))
def test_golden_blaschke_orbit_bytes(k):
    # the orbits run to the end: the theta quotient has no exclusion zone
    orbit = cd.iterate(bl.BlaschkeProduct.from_alpha(0.4), math.pi / 8 + k * math.pi / 2,
                       100_000)
    assert orbit.size == 100_000
    assert np.all((orbit > 0.0) & (orbit < TWO_PI))
    assert hashlib.sha256(orbit.tobytes()).hexdigest() == _GOLDEN_BLASCHKE_ORBITS[k]


@pytest.mark.parametrize("make, sha", [g[1:] for g in _GOLDEN_ANGLE_ORBITS],
                         ids=[g[0] for g in _GOLDEN_ANGLE_ORBITS])
def test_golden_angle_orbit_bytes(make, sha):
    orbit = cd.iterate(make(), 0.9, 10_000)
    assert hashlib.sha256(orbit.tobytes()).hexdigest() == sha


_ONE_OF_EACH_CIRCLE_KIND = [
    ("rotation", lambda: cd.rotation_map(0.7)),
    ("power", lambda: mz.power_map(2)),
    ("mobius", lambda: cd.mobius_boundary_map(1.0, 0.3, 0.3, 1.0)),
    ("finite_blaschke", lambda: mz.finite_blaschke([0.0, 0.5 + 0.2j])),
    ("blaschke", lambda: bl.BlaschkeProduct.from_alpha(0.4)),
]


@pytest.mark.parametrize("make", [g[1] for g in _ONE_OF_EACH_CIRCLE_KIND],
                         ids=[g[0] for g in _ONE_OF_EACH_CIRCLE_KIND])
def test_apply_map_empty_input(make):
    out = cd.apply_map(make(), np.array([]))
    assert out.shape == (0,) and out.dtype == np.float64


@pytest.mark.parametrize("make", [g[1] for g in _ONE_OF_EACH_CIRCLE_KIND],
                         ids=[g[0] for g in _ONE_OF_EACH_CIRCLE_KIND])
def test_scalar_step_matches_array_step(make):
    # iterate steps rotations and power maps on Python floats (_step) and
    # the other kinds through apply_map; both keep the array path's bits.
    # The Blaschke orbit runs in u and rounds its own way (see
    # test_blaschke.test_circle_orbit_steps_agree_with_the_angle_map)
    cmap = make()
    th = np.linspace(-7.0, 10.0, 301)
    th = th[np.abs(np.sin(th)) > 0.02]  # clear of the Blaschke map's +-1
    for t in th:
        want = cd.apply_map(cmap, np.array([t]))[0]
        got = cd.apply_map(cmap, float(t))
        assert type(got) is float and got == want
        if cmap.kind != bl.BLASCHKE:
            assert cd.iterate(cmap, float(t), 1)[0] == want


def test_scalar_step_refuses_the_singularity_like_the_array_step():
    cmap = bl.BlaschkeProduct.from_alpha(0.4)
    for th in (0.0, TWO_PI, -TWO_PI, 3.0 * TWO_PI):
        with pytest.raises(TooCloseToSingularity) as one:
            cd.apply_map(cmap, th)
        with pytest.raises(TooCloseToSingularity) as many:
            cd.apply_map(cmap, np.array([1.0, th]))
        assert str(one.value) == str(many.value)


def test_apply_map_reduces_a_blaschke_angle_once():
    # -1e-20 mod 2 pi rounds to 2 pi, which a second reduction would take
    # to the singular angle 0
    B = bl.BlaschkeProduct.from_alpha(0.4)
    got = cd.apply_map(B, -1e-20)
    assert got == bl.circle_eval_many(B, np.array([-1e-20]))[0]
    assert abs(got - 6.1645) < 1e-4


def test_mobius_circle_preservation_enforced():
    with pytest.raises(OutOfRange):
        cd.mobius_boundary_map(1.0, 0.4, 0.0, 1.0)  # not an automorphism of the circle


def test_blaschke_boundary_exclusion():
    # only the singularity +1 itself is excluded; 5e-4 from it is a start
    B = bl.BlaschkeProduct.from_alpha(0.4)
    for theta0 in (0.0, TWO_PI):
        with pytest.raises(TooCloseToSingularity):
            cd.iterate(B, theta0, 3)
    assert np.all(np.isfinite(cd.iterate(B, 5e-4, 3)))


def test_discrepancy_extremes():
    assert cd.discrepancy([0.0]) == 1.0
    with pytest.raises(EmptyInput):
        cd.discrepancy([])


@given(st.integers(8, 512), st.floats(0.0, TWO_PI))
@settings(max_examples=60, deadline=None)
def test_discrepancy_equispaced(n, offset):
    th = (offset + TWO_PI * np.arange(n) / n) % TWO_PI
    assert cd.discrepancy(th) <= 1.0 / n + 1e-12


def test_discrepancy_golden_rotation():
    golden = TWO_PI * (math.sqrt(5.0) - 1.0) / 2.0
    orbit = cd.iterate(cd.rotation_map(golden), 0.0, 10_000)
    n = orbit.size
    assert cd.discrepancy(orbit) < 10.0 * math.log(n) / n


def test_discrepancy_rotation_decays():
    golden = TWO_PI * (math.sqrt(5.0) - 1.0) / 2.0
    cmap = cd.rotation_map(golden)
    d3 = cd.discrepancy(cd.iterate(cmap, 0.0, 1_000))
    d5 = cd.discrepancy(cd.iterate(cmap, 0.0, 100_000))
    assert d5 < 0.5 * d3


# ---------------------------------------------------------------------------
# Arc spreading


def test_arc_spread_power_two_exact_cover_count():
    report = cd.arc_spread(mz.power_map(2), (1.0, TWO_PI * 2.0 ** -10), 20)
    assert report.first_full_cover == 10
    assert report.covered_fraction[10] == 1.0
    assert report.covered_fraction[9] == pytest.approx(0.5, abs=1e-3)
    # forward images of an arc only grow under a power map
    fr = report.covered_fraction
    assert all(b >= a for a, b in zip(fr, fr[1:]))


def test_arc_spread_rotation_is_isometric():
    length = TWO_PI * 2.0 ** -6
    report = cd.arc_spread(cd.rotation_map(1.2), (0.3, length), 50)
    assert report.first_full_cover is None
    fr = np.asarray(report.covered_fraction)
    assert np.all(np.abs(fr - length / TWO_PI) < 2.0 / cd.DEFAULT_CELLS)


def test_arc_spread_mobius_contracts():
    m = cd.mobius_boundary_map(1.0, 0.5, 0.5, 1.0)
    report = cd.arc_spread(m, (2.0, 0.4), 60)
    assert report.first_full_cover is None
    assert report.covered_fraction[-1] < report.covered_fraction[0]


def test_arc_spread_validation():
    with pytest.raises(OutOfRange):
        cd.arc_spread(mz.power_map(2), (0.0, 0.0), 5)
    with pytest.raises(OutOfRange):
        cd.arc_spread(mz.power_map(2), (0.0, 0.1), 5, grid=512)


def test_arc_spread_sequence():
    maps = [cd.rotation_map(0.3), mz.power_map(2), cd.rotation_map(0.1)]
    report = cd.arc_spread(maps, (0.0, 0.01), 10)
    assert report.iterations == 3  # sequence exhausted before n_max
    assert report.covered_fraction[2] > report.covered_fraction[1]


# ---------------------------------------------------------------------------
# Composition sequences and the derivative sum


def test_pommerenke_sum_rotations():
    maps = [cd.rotation_map(0.1 * k) for k in range(10)]
    assert cd.pommerenke_sum(maps) == 0.0


def test_pommerenke_sum_powers():
    maps = [mz.power_map(2) for _ in range(7)]
    assert cd.pommerenke_sum(maps) == 7.0


def test_pommerenke_sum_blaschke_factors():
    # z(z+a)/(1+az) fixes 0 with |g'(0)| = a
    maps = [mz.finite_blaschke([0.0, -(1.0 - 1.0 / (n + 2) ** 2)])
            for n in range(50)]
    want = sum(1.0 / (n + 2) ** 2 for n in range(50))
    assert cd.pommerenke_sum(maps) == pytest.approx(want, rel=1e-12)


def test_pommerenke_requires_origin_fixed():
    with pytest.raises(OriginNotFixed):
        cd.pommerenke_sum([cd.mobius_boundary_map(1.0, 0.5, 0.5, 1.0)])
    with pytest.raises(OriginNotFixed):
        cd.derivative_at_zero_modulus(mz.finite_blaschke([0.4]))


def test_compose_sequence_matches_manual():
    # the non-autonomous orbit through the array path, against scalar steps
    maps = [cd.rotation_map(0.2), mz.power_map(2), cd.rotation_map(0.5)]
    orbit, point = [], np.array([1.0])
    for g in maps:
        point = cd.apply_map(g, point)
        orbit.append(point[0])
    th = 1.0
    for i, g in enumerate(maps):
        th = cd.apply_map(g, th)
        assert orbit[i] == th


def test_blaschke_boundary_derivative_at_zero():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    assert cd.derivative_at_zero_modulus(B) == pytest.approx(0.8, abs=1e-10)


# ---------------------------------------------------------------------------
# Invariance statistics


def test_invariance_rotation_noise_level():
    n = 10_000
    ks = cd.invariance_test(cd.rotation_map(2.1), n, seed=31)
    assert ks < cd.ks_critical(n, 0.01)


def test_invariance_power_three():
    n = 10_000
    ks = cd.invariance_test(mz.power_map(3), n, seed=32)
    assert ks < cd.ks_critical(n, 0.01)


def test_invariance_blaschke_boundary():
    B = bl.BlaschkeProduct.from_alpha(0.4)
    n = 10_000
    ks = cd.invariance_test(B, n, seed=33)
    assert ks < cd.ks_critical(n, 0.01)


def test_invariance_deterministic():
    a = cd.invariance_test(mz.power_map(2), 5_000, seed=7)
    b = cd.invariance_test(mz.power_map(2), 5_000, seed=7)
    assert a == b


def _discrepancy_reference(samples):
    # the one-line formula discrepancy had before it worked in blocks
    x = np.sort(np.asarray(samples, dtype=np.float64) % TWO_PI) / TWO_PI
    n = x.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - x), np.max(x - (i - 1) / n)))


@pytest.mark.parametrize("make", [g[1] for g in _ONE_OF_EACH_CIRCLE_KIND],
                         ids=[g[0] for g in _ONE_OF_EACH_CIRCLE_KIND])
def test_invariance_block_invariance(monkeypatch, make):
    # 37 divides none of the sample counts but 37; 112 = 3 * 37 + 1 leaves a
    # one-element last block, which would round differently on its own (a
    # last-bit difference survives into the angle for a few seeds in 20)
    cmap = make()
    runs = [(n, seed) for n in (1, 37, 38, 112) for seed in range(20)]
    one_block = {run: cd._uniform_image(cmap, *run) for run in runs}
    # the Mobius map of the list does not fix 0, and the KS test refuses it
    fixes = cd.fixes_origin(cmap)
    ks = {run: cd.invariance_test(cmap, *run) for run in runs} if fixes else {}
    monkeypatch.setattr(rng, "CHUNK", 37)
    for run in runs:
        got = cd._uniform_image(cmap, *run)
        assert got.tobytes() == one_block[run].tobytes(), run
        if fixes:
            assert cd.invariance_test(cmap, *run) == ks[run] == _discrepancy_reference(got)


def test_blocked_discrepancy_matches_the_one_line_formula(monkeypatch):
    gen = np.random.default_rng(5)
    samples = [gen.uniform(-20.0, 20.0, 1_000), np.zeros(3), np.array([TWO_PI, -0.0]),
               np.repeat(gen.uniform(0.0, TWO_PI, 10), 9),
               cd.iterate(cd.rotation_map(0.7), 0.9, 2_000)]
    for block in (rng.CHUNK, 37, 1):
        monkeypatch.setattr(rng, "CHUNK", block)
        for th in samples:
            before = th.copy()
            assert cd.discrepancy(th) == _discrepancy_reference(th)
            assert th.tobytes() == before.tobytes()  # the input is not touched


def test_ks_critical_values():
    assert cd.ks_critical(100_000) == pytest.approx(1.63 / math.sqrt(100_000))
    with pytest.raises(OutOfRange):
        cd.ks_critical(100, level=0.2)


def _birkhoff_sin(cmap, theta0, n):
    """Time average (1/n) sum_{k<n} sin(g^k(theta0))."""
    return float(np.mean(np.sin(np.append(theta0, cd.iterate(cmap, theta0, n - 1)))))


def test_birkhoff_contrast_ergodic_vs_not():
    # Slowly hyperbolic Mobius map: time averages of sin depend strongly on
    # which side of the repelling point the orbit starts, because the two
    # transits pass through opposite half-circles.  The doubling map's
    # averages agree at the Monte-Carlo level: it is ergodic for Lebesgue.
    n = 10_000
    t = 3.3e-4
    m = cd.mobius_boundary_map(1.0, t, t, 1.0)
    a1 = _birkhoff_sin(m, math.pi - 0.5, n)
    a2 = _birkhoff_sin(m, math.pi + 0.5, n)
    assert abs(a1 - a2) > 0.5

    p2 = mz.power_map(2)
    b1 = _birkhoff_sin(p2, 0.7, n)
    b2 = _birkhoff_sin(p2, 2.1, n)
    assert abs(b1 - b2) < 1.0 / math.sqrt(n)
