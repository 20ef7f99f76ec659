import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from fatoulab import covering as cov
from fatoulab import harmonic as hm
from fatoulab import rng
from fatoulab.errors import (
    BasePointOnBoundary,
    OutOfRange,
    StallRateExceeded,
    UnsupportedMap,
)
from fatoulab.histograms import ArcHistogram, tv_distance

R_E = math.e

PENTAGON = [(0.45 * np.exp(2j * math.pi * (k / 5 + 0.05)), 0.09) for k in range(5)]
FOUR = [(0.5 * np.exp(1j * (0.3 + k * math.pi / 2)), 0.1) for k in range(4)]


def test_annulus_closed_form_oracle():
    # u(z) = log(|z| R)/log(R^2) is harmonic, 0 inner, 1 outer
    p = hm.annulus_outer_mass(1.0, 1.0 / 2.0, 2.0)
    assert p == pytest.approx(0.5)
    p = hm.annulus_outer_mass(math.sqrt(2.0), 0.5, 2.0)
    assert p == pytest.approx(0.75)


def test_wos_annulus_matches_closed_form():
    R, rho, walks = 2.0, math.sqrt(2.0), 100_000
    domain = hm.annulus(1.0 / R, R)
    res = hm.walk_on_spheres(domain, rho + 0.0j, walks, seed=1234)
    p = hm.annulus_outer_mass(rho, 1.0 / R, R)
    sigma = math.sqrt(p * (1.0 - p) / walks)
    assert abs(res.component_masses()[0] - p) < 4.0 * sigma


def test_wos_single_bubble_closed_form():
    # D(0, r) removed from the unit disk is the annulus A(r, 1)
    r, rho, walks = 0.3, 0.6, 100_000
    domain = hm.champagne_disk([(0.0 + 0.0j, r)])
    res = hm.walk_on_spheres(domain, rho + 0.0j, walks, seed=88)
    p = math.log(rho / r) / math.log(1.0 / r)
    sigma = math.sqrt(p * (1.0 - p) / walks)
    assert abs(res.component_masses()[0] - p) < 4.0 * sigma


def test_wos_bookkeeping():
    domain = hm.annulus(0.5, 2.0)
    res = hm.walk_on_spheres(domain, 1.0, 5_000, seed=2)
    assert int(res.hist.counts.sum()) + res.stalled == res.walks
    total_mass = res.hist.masses().sum()
    assert total_mass == pytest.approx((res.walks - res.stalled) / res.walks)


def test_wos_deterministic_and_mergeable():
    domain = hm.annulus(0.5, 2.0)
    full = hm.walk_on_spheres(domain, 1.0, 2_000, seed=9)
    again = hm.walk_on_spheres(domain, 1.0, 2_000, seed=9)
    assert np.array_equal(full.hist.counts, again.hist.counts)
    # sharding by walk_offset reproduces the full run exactly
    first = hm.walk_on_spheres(domain, 1.0, 1_000, seed=9)
    second = hm.walk_on_spheres(domain, 1.0, 1_000, seed=9, walk_offset=1_000)
    assert np.array_equal(full.hist.counts, first.hist.counts + second.hist.counts)


def test_wos_base_point_validation():
    domain = hm.annulus(0.5, 2.0)
    with pytest.raises(BasePointOnBoundary):
        hm.walk_on_spheres(domain, 2.0, 10, seed=1)
    for outside in (2.5, 0.25, -3j, complex(math.nan, 0.0)):
        with pytest.raises(OutOfRange, match="outside the domain"):
            hm.walk_on_spheres(domain, outside, 10, seed=1)
    bubble = hm.champagne_disk([(0.4 + 0.0j, 0.1)])
    for outside in (0.4, complex(0.0, math.nan)):
        with pytest.raises(OutOfRange, match="outside the domain"):
            hm.walk_on_spheres(bubble, outside, 10, seed=1)
    with pytest.raises(OutOfRange):
        hm.walk_on_spheres(domain, 1.0, 0, seed=1)


def test_wos_stall_gate():
    domain = hm.annulus(0.5, 2.0)
    with pytest.raises(StallRateExceeded):
        hm.walk_on_spheres(domain, 1.0, 100, seed=3, step_cap=1)


def test_champagne_validation():
    with pytest.raises(OutOfRange):
        hm.champagne_disk([])
    with pytest.raises(OutOfRange):
        hm.champagne_disk([(0.9 + 0.0j, 0.2)])  # leaks outside the disk
    with pytest.raises(OutOfRange):
        hm.champagne_disk([(0.0j, 0.2), (0.1 + 0.0j, 0.2)])  # overlapping


def test_champagne_positivity_and_monotonicity():
    # every bubble receives positive mass; the single-bubble closed form is
    # an upper bound by domain monotonicity (removing the other bubbles
    # enlarges the domain)
    domain = hm.champagne_disk(PENTAGON)
    walks = 60_000
    res = hm.walk_on_spheres(domain, 0.0j, walks, seed=404)
    masses = res.component_masses()
    for i, (c, r) in enumerate(PENTAGON, start=1):
        assert masses[i] > 0.0
        single = 1.0 - math.log(abs(c) / r) / math.log(1.0 / r)
        sigma = math.sqrt(single * (1.0 - single) / walks)
        assert masses[i] <= single + 4.0 * sigma


def test_rotation_equivariance():
    n_bins = 32
    beta = 2.0 * math.pi * 3 / n_bins  # an exact bin shift
    walks = 20_000
    domain = hm.champagne_disk(PENTAGON)
    base = 0.1 + 0.0j
    res = hm.walk_on_spheres(domain, base, walks, seed=31337, n_bins=n_bins)
    rot = complex(math.cos(beta), math.sin(beta))
    rot_domain = hm.champagne_disk([(rot * c, r) for c, r in PENTAGON])
    res_rot = hm.walk_on_spheres(rot_domain, base * rot, walks, seed=2718,
                                 n_bins=n_bins)
    shifted = ArcHistogram(np.roll(res.hist.counts, 3, axis=1), res.hist.total_samples)
    assert tv_distance(shifted, res_rot.hist) < 10.0 / math.sqrt(walks)


def test_support_test_pass_and_fail():
    domain = hm.annulus(1.0 / R_E, R_E)
    res = hm.walk_on_spheres(domain, 1.0, 100_000, seed=6, n_bins=32)
    report = hm.support_test(res, 1e-4)
    assert report.passed
    assert report.smallest_mass > 1e-4

    tiny = hm.walk_on_spheres(domain, 1.0, 10, seed=6, n_bins=64)
    report = hm.support_test(tiny, 1e-4)
    assert not report.passed
    assert len(report.deficient) > 0
    # a minimum mass of 0 or below, or NaN, would pass every histogram
    for mass in (-1.0, 0.0, math.nan):
        with pytest.raises(OutOfRange, match="min_bin_mass must be > 0"):
            hm.support_test(tiny, mass)


def test_cross_validate_annulus():
    model = cov.annulus_model(R_E)
    report = hm.cross_validate(model, 100_000, seed=246)
    assert report.passed
    assert report.tv_distance < 10.0 / math.sqrt(100_000)


def test_cross_validate_deterministic():
    model = cov.annulus_model(R_E)
    a = hm.cross_validate(model, 20_000, seed=99)
    b = hm.cross_validate(model, 20_000, seed=99)
    assert a.tv_distance == b.tv_distance


def test_cross_validate_refuses_a_non_annulus_model():
    # the walks run on the annulus of the model, which only an annulus has
    for model in (cov.disk_model(), cov.punctured_disk_model()):
        with pytest.raises(UnsupportedMap, match="annulus"):
            hm.cross_validate(model, 1_000, seed=1)


def _sha(arrays, stalled=None):
    m = hashlib.sha256()
    for a in arrays:
        m.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    if stalled is not None:
        m.update(str(stalled).encode())
    return m.hexdigest()


def test_golden_wos_and_pushforward_counts():
    # sha256 of the exit counts at fixed seeds, computed before the walk
    # loop ran in chunks; 100k annulus walks and 200k samples span several
    # chunks
    ann = hm.walk_on_spheres(hm.annulus(1.0 / R_E, R_E), 1.0 + 0.0j, 100_000, seed=2024)
    assert _sha(ann.hist.counts, ann.stalled) == (
        "811f0f99a60035906cb764b0e77be78deef04e05b9c1f1b960f0232bfab35662")
    champ = hm.walk_on_spheres(hm.champagne_disk(FOUR), 0.05 + 0.02j, 30_000, seed=77)
    assert _sha(champ.hist.counts, champ.stalled) == (
        "08c45e5285fe4c270d0171327ea43b560084cf15dba1c581eba22e063483c93d")
    push = cov.pushforward_measure(cov.annulus_model(R_E), 200_000, 64, seed=5)
    assert _sha(push.counts) == (
        "e635087bf5075514165cd782d6304512693c8a05a01952b05cfaceba6f3076e6")


@pytest.mark.parametrize("domain, base", [
    (hm.annulus(0.5, 2.0), 1.0 + 0.0j),
    (hm.champagne_disk(FOUR), 0.05 + 0.02j),
], ids=["annulus", "champagne"])
def test_wos_chunk_invariance(monkeypatch, domain, base):
    # step cap 40 stalls ~5% of the walks; the gate is lifted so that
    # stalled walks are compared too.  The reference runs every walk in
    # its own lane; pools of 37 lanes and of one lane refill lanes freed by
    # exits and by stalls, often on the same step
    monkeypatch.setattr(hm, "STALL_GATE", 1.0)
    seed, pool = 13, rng.CHUNK
    for width, walks in ((37, 1_001), (1, 200)):
        runs = {cap: hm.walk_on_spheres(domain, base, walks, seed=seed, step_cap=cap)
                for cap in (hm.DEFAULT_STEP_CAP, 40)}
        assert runs[40].stalled > 0
        monkeypatch.setattr(rng, "CHUNK", width)  # 37 divides neither walks nor shards
        for cap, ref in runs.items():
            res = hm.walk_on_spheres(domain, base, walks, seed=seed, step_cap=cap)
            assert np.array_equal(res.hist.counts, ref.hist.counts)
            assert res.stalled == ref.stalled
            # shards whose offsets straddle refills merge exactly
            bounds = [b for b in (0, 50, 111, 700) if b < walks] + [walks]
            shards = [hm.walk_on_spheres(domain, base, hi - lo, seed=seed, step_cap=cap,
                                         walk_offset=lo)
                      for lo, hi in zip(bounds, bounds[1:])]
            assert np.array_equal(sum(s.hist.counts for s in shards), ref.hist.counts)
            assert sum(s.stalled for s in shards) == ref.stalled
        monkeypatch.setattr(rng, "CHUNK", pool)


def test_wos_matches_walks_run_one_at_a_time(monkeypatch):
    # walk i jumps with draws 1, 2, ... of stream i and is checked after
    # each jump but its step_cap-th, after which it stalls unchecked
    monkeypatch.setattr(hm, "STALL_GATE", 1.0)
    domain, base, seed, cap, walks = hm.champagne_disk(FOUR), 0.05 + 0.02j, 5, 40, 150
    eps = 1e-6 * domain.diameter
    centers = domain.component_centers()
    counts, stalled = np.zeros((domain.n_components, 16), dtype=np.int64), 0
    work, quadrant = np.empty((4, 1)), np.empty(1, dtype=np.intp)
    for i in range(walks):
        key = rng.stream_keys(seed, np.array([i], dtype=np.uint64))
        z = np.array([base])
        d = domain.distance(z)
        for k in range(1, cap + 1):
            cos, sin = hm._cos_sin_2pi(rng.uniform01(None, key, k), work, quadrant)
            z.real += d * cos
            z.imag += d * sin
            d = domain.distance(z)
            if k < cap and d[0] < eps:
                cid = int(domain.component(z)[0])
                angle = float(np.angle(z - centers[cid])[0]) % hm.TWO_PI
                counts[cid, min(int(angle / hm.TWO_PI * 16), 15)] += 1
                break
        else:
            stalled += 1
    assert 0 < stalled < walks
    for width in (rng.CHUNK, 7):
        monkeypatch.setattr(rng, "CHUNK", width)
        res = hm.walk_on_spheres(domain, base, walks, seed=seed, step_cap=cap, n_bins=16)
        assert np.array_equal(res.hist.counts, counts)
        assert res.stalled == stalled


def _jump_direction(u):
    u = np.array(u, dtype=np.float64)  # a copy: the helper overwrites it
    work, quadrant = np.empty((4, u.size)), np.empty(u.size, dtype=np.intp)
    cos, sin = hm._cos_sin_2pi(u, work, quadrant)
    return cos.copy(), sin.copy()


def test_jump_direction_against_mpmath():
    # within one unit in the last place of 1 of cos and sin of the exact
    # angle 2 pi u, at random u, at the octants and one ulp to each side of
    # them, and at the largest u below 1
    mp = pytest.importorskip("mpmath")
    eighths = [k / 8 + e for k in range(9) for e in (-2.0 ** -53, 0.0, 2.0 ** -53)]
    u = np.concatenate([rng.uniform01(17, np.arange(500, dtype=np.uint64), 1),
                        [x for x in eighths if 0.0 <= x < 1.0], [1.0 - 2.0 ** -53]])
    cos, sin = _jump_direction(u)
    with mp.workdps(40):
        for x, c, s in zip(u.tolist(), cos.tolist(), sin.tolist()):
            angle = 2 * mp.pi * mp.mpf(x)
            assert abs(c - mp.cos(angle)) <= 2.0 ** -52, x
            assert abs(s - mp.sin(angle)) <= 2.0 ** -52, x


def test_jump_direction_exact_at_quarter_turns():
    cos, sin = _jump_direction([0.0, 0.25, 0.5, 0.75])
    assert cos.tolist() == [1.0, 0.0, -1.0, 0.0]
    assert sin.tolist() == [0.0, 1.0, 0.0, -1.0]


def test_jump_direction_of_a_lane_alone_matches_the_pool():
    # real arithmetic gives a lane the same bits whatever the array size:
    # 37 lanes, a full pool of 2^14, and each of the 37 alone
    u = rng.uniform01(23, np.arange(rng.CHUNK, dtype=np.uint64), 1)
    pool, part = _jump_direction(u), _jump_direction(u[:37])
    for i in range(37):
        alone = _jump_direction(u[i:i + 1])
        for a, p, q in zip(alone, part, pool):
            assert a.tobytes() == p[i:i + 1].tobytes() == q[i:i + 1].tobytes()


def test_pushforward_chunk_invariance(monkeypatch):
    for model in (cov.annulus_model(R_E), cov.disk_model(), cov.punctured_disk_model()):
        ref = cov.pushforward_measure(model, 1_001, 16, seed=8)
        monkeypatch.setattr(rng, "CHUNK", 37)
        res = cov.pushforward_measure(model, 1_001, 16, seed=8)
        bounds = [0, 50, 111, 1_001]
        shards = [cov.pushforward_measure(model, hi - lo, 16, seed=8, sample_offset=lo)
                  for lo, hi in zip(bounds, bounds[1:])]
        monkeypatch.undo()
        assert np.array_equal(res.counts, ref.counts)
        assert np.array_equal(sum(s.counts for s in shards), ref.counts)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_bounded_by_chunk(monkeypatch):
    # a small chunk keeps the test fast; 8x the samples must not need much
    # more memory than one chunk
    chunk = 2_048
    monkeypatch.setattr(rng, "CHUNK", chunk)
    domain = hm.champagne_disk(FOUR)
    model = cov.annulus_model(R_E)
    for run in (lambda n: hm.walk_on_spheres(domain, 0.0j, n, seed=4),
                lambda n: cov.pushforward_measure(model, n, 64, seed=4)):
        one, eight = (_peak_bytes(lambda: run(n)) for n in (chunk, 8 * chunk))
        assert eight <= 1.5 * one, (one, eight)


def test_champagne_distance_keeps_first_nearest_on_ties():
    # two bubbles mirrored in the real axis: points on the axis are equally
    # near both, and the lower component id wins, as argmin would pick
    domain = hm.champagne_disk([(0.5j, 0.2), (-0.5j, 0.2), (0.6 + 0.0j, 0.1)])
    rng = np.random.default_rng(3)
    z = np.concatenate([rng.uniform(-0.2, 0.45, 50) + 0.0j,
                        0.8 * np.exp(2j * math.pi * rng.random(500))])
    d, comp = domain.distance(z), domain.component(z)
    table = np.stack([1.0 - np.abs(z)] + [np.abs(z - c) - r for c, r in domain.bubbles],
                     axis=1)
    assert np.array_equal(comp, np.argmin(table, axis=1))
    assert np.array_equal(d, table.min(axis=1))
    assert np.any(table[:50, 1] == table[:50, 2])
    assert np.all(comp[:50][table[:50, 1] == table[:50, 2]] != 2)
