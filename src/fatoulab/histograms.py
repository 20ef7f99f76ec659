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
    """Bin counts over equal arcs of one boundary circle.

    ``total_samples`` is the denominator shared by all components of a run,
    so masses across components sum to (hits / total_samples).
    """

    component_id: int
    counts: np.ndarray = field(repr=False)
    total_samples: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def hits(self) -> int:
        return int(self.counts.sum())

    def masses(self) -> np.ndarray:
        return self.counts / float(self.total_samples)

    def mass(self) -> float:
        return self.hits / float(self.total_samples)

    def bin_start_angles(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n_bins) / self.n_bins


def new_histograms(n_components, n_bins, total_samples):
    return [ArcHistogram(cid, np.zeros(n_bins, dtype=np.int64), total_samples)
            for cid in range(n_components)]


def bin_angles(angles, n_bins):
    """Map angles (radians, any real) to bin indices 0..n_bins-1."""
    a = np.asarray(angles, dtype=np.float64) % TWO_PI
    idx = (a / TWO_PI * n_bins).astype(np.int64)
    return np.minimum(idx, n_bins - 1)


def accumulate(hist: ArcHistogram, angles):
    """Add one count per angle into the matching bin of ``hist``."""
    idx = bin_angles(angles, hist.n_bins)
    np.add.at(hist.counts, idx, 1)


def tv_distance(hists_a, hists_b):
    """Total-variation distance between two runs over (component, bin) cells."""
    if len(hists_a) != len(hists_b):
        raise EmptyInput("histogram lists have different component counts")
    acc = 0.0
    for ha, hb in zip(hists_a, hists_b):
        if ha.n_bins != hb.n_bins:
            raise EmptyInput("histogram bin counts differ")
        acc += float(np.abs(ha.masses() - hb.masses()).sum())
    return 0.5 * acc


def to_csv_text(hists) -> str:
    lines = [CSV_HEADER]
    for h in hists:
        starts = h.bin_start_angles()
        for j in range(h.n_bins):
            lines.append(f"{h.component_id},{j},{starts[j]:.17g},{int(h.counts[j])}")
    return "\n".join(lines) + "\n"
