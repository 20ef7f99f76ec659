import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatoulab import circle_dynamics, cli, csv_bytes
from fatoulab import histograms as hg
from fatoulab.errors import EmptyInput
from fatoulab.histograms import ArcHistogram, bin_angles, count_arcs, tv_distance

TWO_PI = 2.0 * math.pi


def test_count_arcs_matches_add_at_reference():
    shape = (3, 16)
    rng = np.random.default_rng(7)
    # exact multiples of 2 pi land in bin 0; 2 pi - 1 ulp and a tiny negative
    # angle wrap to just below 2 pi and are clamped into the last bin
    edges = [0.0, -0.0, TWO_PI, -TWO_PI, 4.0 * math.pi, np.nextafter(TWO_PI, 0.0), -1e-300]
    angles = np.concatenate([rng.uniform(-20.0, 20.0, 5_000), edges])
    component = rng.integers(0, shape[0], angles.size)
    bins = [min(int(a % TWO_PI / TWO_PI * shape[1]), shape[1] - 1) for a in angles.tolist()]
    assert bins[-len(edges):] == [0, 0, 0, 0, 0, shape[1] - 1, shape[1] - 1]
    ref = np.zeros(shape, dtype=np.int64)
    np.add.at(ref, (component, bins), 1)
    counts = count_arcs(component, bin_angles(angles, shape[1]), shape)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, ref)
    # one id for every sample, and chunks that merge by addition
    assert np.array_equal(count_arcs(0, bin_angles(angles, 8), (1, 8))[0],
                          np.bincount(bin_angles(angles, 8), minlength=8))
    halves = (count_arcs(component[part], bin_angles(angles[part], shape[1]), shape)
              for part in (slice(None, 1_234), slice(1_234, None)))
    assert np.array_equal(sum(halves), ref)


def test_wrap_angles_is_remainder_bit_for_bit():
    # numpy's % is fmod plus 2 pi on a negative remainder, and gives +0 for
    # every zero remainder; wrap_angles keeps fmod's sign of zero
    rng = np.random.default_rng(11)
    edges = [0.0, -0.0, TWO_PI, -TWO_PI, 4.0 * math.pi, np.nextafter(TWO_PI, 0.0), -1e-20,
             -1e-300, 5e-324, -5e-324, 1e300, -1e300, math.inf, math.nan]
    x = np.concatenate([rng.uniform(-50.0, 50.0, 10_000), rng.uniform(0.0, TWO_PI, 1_000),
                        1e-15 * rng.standard_normal(1_000), edges])
    with np.errstate(invalid="ignore"):
        got, want = hg.wrap_angles(x), x % TWO_PI
    assert np.array_equal(got, want, equal_nan=True)
    assert hg.wrap_angles(np.float64(-1.0)) == -1.0 % TWO_PI
    assert np.array_equal(np.signbit(got[want == 0.0]), np.signbit(x[want == 0.0]))


def test_count_arcs_empty_input():
    for component in (np.zeros(0, dtype=np.intp), 0):
        counts = count_arcs(component, bin_angles(np.zeros(0), 8), (2, 8))
        assert counts.shape == (2, 8)
        assert not counts.any()


def test_tv_distance_refuses_different_shapes():
    a = ArcHistogram(np.ones((2, 8), dtype=np.int64), 16)
    assert tv_distance(a, a) == 0.0
    for shape in ((2, 16), (1, 8), (3, 8)):
        with pytest.raises(EmptyInput):
            tv_distance(a, ArcHistogram(np.ones(shape, dtype=np.int64), 16))


# the string builders the CSV outputs had before one writer replaced them
def _orbit_csv_reference(orbit):
    return "iteration,angle\n" + "".join(
        f"{i + 1},{float(a)!r}\n" for i, a in enumerate(orbit))


def _spread_csv_reference(fractions):
    return "iteration,covered_fraction\n" + "".join(
        f"{i},{float(f)!r}\n" for i, f in enumerate(fractions))


def _histogram_csv_reference(hist):
    n_bins = hist.counts.shape[1]
    starts = TWO_PI * np.arange(n_bins) / n_bins
    lines = [hg.CSV_HEADER]
    for cid, row in enumerate(hist.counts):
        for j in range(n_bins):
            lines.append(f"{cid},{j},{starts[j]:.17g},{int(row[j])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", [hg.CSV_ROWS, 7, 1])
def test_csv_writer_matches_the_old_builders(monkeypatch, rows):
    monkeypatch.setattr(hg, "CSV_ROWS", rows)
    rng = np.random.default_rng(11)
    below = np.nextafter(TWO_PI, 0.0)
    edges = [0.0, 0.1, 1.0 / 3.0, below, np.nextafter(below, 0.0), 5e-324, 2.0 ** -30]
    orbits = [np.concatenate([edges, rng.uniform(0.0, TWO_PI, 500)]), np.zeros(0),
              np.array([below])]
    assert any(len(repr(float(a))) >= 19 for a in orbits[0])  # 17 significant digits
    for orbit in orbits:
        got = "".join(hg.csv_chunks("iteration,angle", "%d,%r",
                                    range(1, orbit.size + 1), orbit))
        assert got == _orbit_csv_reference(orbit)
    for fractions in ((rng.random(40) / 3.0).tolist() + [1.0], (0.0,), ()):
        fractions = tuple(fractions)
        got = "".join(hg.csv_chunks("iteration,covered_fraction", "%d,%r",
                                    range(len(fractions)), fractions))
        assert got == _spread_csv_reference(fractions)
    counts = rng.integers(0, 10 ** 12, (4, 64))
    counts[2] = 0  # a component no sample reached
    for c in (counts, counts[:, :5], counts[:0], np.zeros((1, 3), dtype=np.int64)):
        hist = ArcHistogram(c, 1_000)
        assert hg.to_csv_text(hist) == _histogram_csv_reference(hist)


# the float kernel of csv_chunks against % on doubles, and the orbit CSV
# read back

# biased exponents that the kernel covers
_WINDOW = range(csv_bytes._LOWEST, csv_bytes._LOWEST + csv_bytes._EXPONENTS["k"].size)


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _assert_formats(values):
    x = np.asarray(values, dtype=np.float64)
    for fmt in ("%r", "%.17g"):
        got = "".join(hg.csv_chunks("x", fmt, x)).split("\n")[1:-1]
        assert got == [fmt % v for v in x.tolist()], fmt


_FINITE = st.integers(0, 2 ** 64 - 1).map(_double).filter(math.isfinite)
_IN_WINDOW = st.builds(lambda sign, e, m: _double(sign << 63 | e << 52 | m),
                       st.integers(0, 1), st.integers(_WINDOW.start, _WINDOW.stop - 1),
                       st.integers(0, 2 ** 52 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_FINITE, _IN_WINDOW), min_size=1, max_size=64))
def test_float_kernel_matches_percent_formatting(values):
    _assert_formats(values)


def test_float_kernel_fixed_inputs():
    powers = np.ldexp(1.0, np.arange(_WINDOW.start, _WINDOW.stop) - 1023)
    switches = np.array([1e-4, 1e16, 1e17])
    # x +- 2 at 2**54 + 4j, whose rounding bounds are multiples of 10 when
    # j = 1 or 2 (mod 5): an even significand accepts them, an odd one does not
    bounds = 2.0 ** 54 + 4.0 * np.arange(40)
    # exact short decimals, and exact values with a tie at the 17th digit
    short = np.array([0.5, 0.25, 0.125, 1.0, 1.5, 2.0, 10.0, 123.0, 2.5e-3, 1e15, 4.5e16])
    ties = 1.0 + np.arange(1, 64, 2) * 2.0 ** -17
    values = np.concatenate([powers, switches, bounds, short, ties])
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    edges = [0.0, -0.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0.0)]
    _assert_formats(np.concatenate([values, -values, edges]))


@pytest.mark.parametrize("cmap", ['{"kind": "blaschke", "alpha": 0.4}',
                                  '{"kind": "power", "d": 2}'], ids=["blaschke", "power"])
def test_orbit_csv_reads_back_bit_for_bit(tmp_path, capsys, cmap):
    n = 20_000
    assert cli.main(["circle-stats", "--map", cmap, "--n", str(n), "--theta0", "0.7",
                     "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "circle-stats-orbit.csv").read_text().splitlines()
    assert rows[0] == "iteration,angle"
    iteration, angle = zip(*(row.split(",") for row in rows[1:]))
    assert [int(i) for i in iteration] == list(range(1, n + 1))
    orbit = circle_dynamics.iterate(circle_dynamics.circle_map_from_dict(json.loads(cmap)), 0.7, n)
    assert np.array_equal(np.array([float(a) for a in angle]).view(np.uint64),
                          orbit.view(np.uint64))
