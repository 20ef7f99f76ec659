"""Empirical measures on boundary circles: equal-arc bin counts per component."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput

TWO_PI = 2.0 * math.pi

CSV_HEADER = "component_id,bin_index,bin_start_angle_rad,count"


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


def bin_angles(angles, n_bins):
    """Map angles (radians, any real) to bin indices 0..n_bins-1."""
    a = np.asarray(angles, dtype=np.float64) % TWO_PI
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


def to_csv_text(hist: ArcHistogram) -> str:
    n_bins = hist.counts.shape[1]
    starts = TWO_PI * np.arange(n_bins) / n_bins
    lines = [CSV_HEADER]
    for cid, row in enumerate(hist.counts):
        for j in range(n_bins):
            lines.append(f"{cid},{j},{starts[j]:.17g},{int(row[j])}")
    return "\n".join(lines) + "\n"
