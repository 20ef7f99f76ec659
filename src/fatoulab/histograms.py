"""Empirical measures on boundary circles: equal-arc bin counts per component.

Also the CSV text of the command-line outputs, as bytes: ``csv_chunks``
writes the index rows of an orbit or a spread, ``"%d,%r" % (i, x)``, each
chunk rendered with numpy (``csv_bytes``), and ``to_csv_text`` writes the
few hundred rows of a histogram with ``%``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _lazy_import
from .errors import EmptyInput

TWO_PI = 2.0 * math.pi

CSV_HEADER = "component_id,bin_index,bin_start_angle_rad,count"
# rows per csv_chunks chunk, not rng.CHUNK: at 2**14 rows of bytes a 1e5-point
# Blaschke circle-stats peaked at 35.8 MB against 33.6 MB at 2**12 and 2**13
# (6 runs each)
CSV_ROWS = 1 << 12
_bytes = _lazy_import(f"{__package__}.csv_bytes")  # executed by the first chunk


@dataclass
class ArcHistogram:
    """Bin counts over equal arcs of the boundary circles of one run.

    ``counts`` is an int64 (components, bins) matrix whose row c counts the
    samples that landed on component c.  ``total_samples`` is the denominator
    shared by all components, so a component's mass is (row sum /
    total_samples).  Counts of disjoint sample ranges merge by addition.
    """

    counts: np.ndarray = field(repr=False)
    total_samples: int

    def masses(self) -> np.ndarray:
        return self.counts / float(self.total_samples)

    def component_masses(self) -> list:
        return [int(row.sum()) / float(self.total_samples) for row in self.counts]


def wrap_angles(angles):
    """``angles % TWO_PI`` for a float64 array, bit for bit but for the sign
    of a zero.

    ``%`` is ``fmod`` plus 2π where the remainder is negative, and ``fmod``
    returns an angle in [0, 2π) unchanged, so wrapping angles that are
    already reduced costs a fifth of ``%``.
    """
    # an array even for one angle, so that the add below can write into it
    a = np.fmod(angles, TWO_PI, out=np.empty(np.shape(angles)))
    np.add(a, TWO_PI, out=a, where=a < 0.0)
    return a


def bin_angles(angles, n_bins):
    """Map angles (radians, any real) to bin indices 0..n_bins-1."""
    a = wrap_angles(np.asarray(angles, dtype=np.float64))
    idx = (a / TWO_PI * n_bins).astype(np.int64)
    return np.minimum(idx, n_bins - 1)


def count_arcs(component, bins, shape):
    """(components, bins) matrix counting each (component[i], bins[i]) pair.

    ``component`` may be one id for every sample; ``bins`` are bin indices
    as ``bin_angles`` gives them.
    """
    cells = np.asarray(component, dtype=np.intp) * shape[1] + bins
    return np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape)


def tv_distance(a: ArcHistogram, b: ArcHistogram) -> float:
    """Total-variation distance between two runs over (component, bin) cells."""
    if a.counts.shape != b.counts.shape:
        raise EmptyInput(f"histogram shapes differ: {a.counts.shape} and {b.counts.shape}")
    acc = 0.0
    # one sum per component, added in component order
    for row_a, row_b in zip(a.masses(), b.masses()):
        acc += float(np.abs(row_a - row_b).sum())
    return 0.5 * acc


def csv_chunks(header: str, first: int, values):
    """A CSV file as bytes chunks of at most CSV_ROWS rows, made as they are read.

    ``header`` is the first line, and row i is ``"%d,%r" % (first + i,
    values[i])`` for the floats ``values``, a sequence or a 1-d array.  Each
    chunk is rendered as bytes (see ``csv_bytes``): the index and the ``%r``
    of positive floats without an exponent (1e-4 <= x < 1e16) by a digit
    kernel, every other value by ``%``.
    """
    yield header.encode("ascii") + b"\n"
    for lo in range(0, len(values), CSV_ROWS):
        yield _bytes.rows(first + lo, values[lo:lo + CSV_ROWS])


def to_csv_text(hist: ArcHistogram) -> bytes:
    """The histogram as CSV bytes, one row per (component, bin) cell."""
    n_bins = hist.counts.shape[1]
    starts = (TWO_PI * np.arange(n_bins) / n_bins).tolist()
    text = "".join(["%d,%d,%.17g,%d\n" % (c, j, starts[j], count)
                    for c, row in enumerate(hist.counts.tolist())
                    for j, count in enumerate(row)])
    return (CSV_HEADER + "\n" + text).encode("ascii")
