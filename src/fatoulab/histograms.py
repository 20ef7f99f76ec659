"""Empirical measures on boundary circles: equal-arc bin counts per component.

Also the one CSV writer of the command-line outputs, ``csv_chunks``, which
renders each chunk of rows as bytes with numpy (``csv_bytes``), byte for
byte what ``row % values`` gives.
"""

from __future__ import annotations

import math
import re
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


_CONVERSION = re.compile(r"%(d|r|\.17g)")


def _column(part):
    return np.arange(part.start, part.stop, part.step) if isinstance(part, range) \
        else np.asarray(part)


def csv_chunks(header: str, row: str, *columns):
    """A CSV file as str chunks of at most CSV_ROWS rows, made as they are read.

    ``header`` is the first line.  Row i is ``row % values``, with values[k]
    the i-th entry of ``columns[k]``: a sequence, a range or a 1-d array,
    all of one length.  ``row`` holds ``%d`` conversions of integers >= 0
    and ``%r`` or ``%.17g`` conversions of floats between literal text, and
    each chunk is rendered as bytes (see ``csv_bytes``): ``%d`` and the
    ``%r`` of positive floats without an exponent (1e-4 <= x < 1e16) by a
    digit kernel, every other value and every ``%.17g`` field by ``%``.
    """
    parts = _CONVERSION.split(row + "\n")  # literal, conversion, ..., literal
    literals = [text.encode("ascii") for text in parts[::2]]
    if any(b"%" in lit or b"\0" in lit for lit in literals) or len(parts) // 2 != len(columns):
        raise ValueError(f"row format {row!r} does not match {len(columns)} columns")
    yield header + "\n"
    for lo in range(0, len(columns[0]), CSV_ROWS):
        yield _bytes.rows(literals, parts[1::2],
                         [_column(c[lo:lo + CSV_ROWS]) for c in columns])


def to_csv_text(hist: ArcHistogram) -> str:
    """The histogram as CSV text, one row per (component, bin) cell."""
    n_components, n_bins = hist.counts.shape
    starts = TWO_PI * np.arange(n_bins) / n_bins
    return "".join(csv_chunks(
        CSV_HEADER, "%d,%d,%.17g,%d",
        np.repeat(np.arange(n_components), n_bins), np.tile(np.arange(n_bins), n_components),
        np.tile(starts, n_components), hist.counts.ravel()))
