"""Column-sum projection: 1-D vectors, the sliding prefix-sum engine, vector distances.

The reduction maps an m x n image to an n-vector of per-column intensity sums.
Windowed column sums over the reference come from a vertical prefix table, so
each window costs O(n) instead of O(m*n).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .image import GrayImage

# 1-D vector of per-column sums; int64, length = template width.
ColumnVector = np.ndarray


class VectorMetric(enum.Enum):
    SSD = "ssd"
    SAD = "sad"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class ColumnSumTable:
    """Vertical prefix sums of a reference image.

    prefix[r, c] = sum of pixels (0..r-1, c); shape (p+1, q), int64.
    """

    prefix: np.ndarray
    window_height: int

    @property
    def image_height(self) -> int:
        return self.prefix.shape[0] - 1

    @property
    def image_width(self) -> int:
        return self.prefix.shape[1]


def project_template(t: GrayImage) -> ColumnVector:
    """Collapse a template to its per-column intensity sums."""
    return t.pixels.sum(axis=0, dtype=np.int64)


def build_column_sum_table(s: GrayImage, m: int) -> ColumnSumTable:
    """Single-pass vertical prefix sums for windows of height m."""
    if not 1 <= m <= s.height:
        raise ValueError(f"window height {m} out of range 1..{s.height}")
    prefix = np.zeros((s.height + 1, s.width), dtype=np.int64)
    # Widen first, then sum in place: cumsum straight from uint8 is ~3x slower.
    prefix[1:] = s.pixels
    np.cumsum(prefix[1:], axis=0, out=prefix[1:])
    prefix.setflags(write=False)
    return ColumnSumTable(prefix=prefix, window_height=m)


def window_column_sums(table: ColumnSumTable, row: int, col: int, n: int) -> ColumnVector:
    """Column sums of the m x n window whose top-left corner is (row, col)."""
    m = table.window_height
    p, q = table.image_height, table.image_width
    if not 0 <= row <= p - m:
        raise ValueError(f"row offset {row} out of range 0..{p - m}")
    if not 0 <= col <= q - n:
        raise ValueError(f"col offset {col} out of range 0..{q - n}")
    return table.prefix[row + m, col : col + n] - table.prefix[row, col : col + n]


def vec_distance(nw: ColumnVector, nt: ColumnVector, metric: VectorMetric) -> int | float:
    """Distance between two column-sum vectors; exact integer for SSD/SAD."""
    nw = np.asarray(nw, dtype=np.int64)
    nt = np.asarray(nt, dtype=np.int64)
    if nw.shape != nt.shape:
        raise ValueError(f"length mismatch: {nw.shape} vs {nt.shape}")
    d = nw - nt
    if metric is VectorMetric.SAD:
        return int(np.abs(d).sum())
    ssd = int(d @ d)
    if metric is VectorMetric.SSD:
        return ssd
    return math.sqrt(ssd)
