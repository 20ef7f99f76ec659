import math

import numpy as np
import pytest

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
