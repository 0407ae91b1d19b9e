"""Column-sum projection: 1-D template vectors and the sliding prefix-sum engine.

The reduction maps an m x n image to an n-vector of per-column intensity sums.
Windowed column sums over the reference come from a vertical prefix table, so
each window costs O(n) instead of O(m*n).
"""

from __future__ import annotations

import enum

import numpy as np

from .image import GrayImage

# 1-D vector of per-column sums; int64, length = template width.
ColumnVector = np.ndarray

_INT32_MAX = int(np.iinfo(np.int32).max)
_INT16_MAX = int(np.iinfo(np.int16).max)
_UINT16_MAX = int(np.iinfo(np.uint16).max)


def sum_dtype(largest: int) -> type:
    """Integer dtype of an array of sums that reach at most `largest`: int32
    while it fits, int64 beyond. Half-width tables halve the memory a match
    writes; every int32-or-int64 choice of the package goes through here."""
    return np.int32 if largest <= _INT32_MAX else np.int64


def narrow_run(peak: int) -> int:
    """How many |differences| of values in 0..peak a uint16 partial sum can
    take: 65535 // peak while peak fits int16, where the differences are
    int16 and read through their uint16 view; 0 beyond, where they are
    sum_dtype wide. Every int16-or-wider choice goes through here."""
    return _UINT16_MAX // max(peak, 1) if peak <= _INT16_MAX else 0


class VectorMetric(enum.Enum):
    SSD = "ssd"
    SAD = "sad"
    EUCLIDEAN = "euclidean"


def project_template(t: GrayImage) -> ColumnVector:
    """Collapse a template to its per-column intensity sums."""
    return t.pixels.sum(axis=0, dtype=np.int64)


def build_column_sum_table(s: GrayImage) -> np.ndarray:
    """Read-only vertical prefix sums of a reference: prefix[r, c] is the sum
    of pixels (0..r-1, c), shape (p+1, q), in sum_dtype(255 * p): int32 up
    to p = 8421504 rows. The column sums of the window of height m at row
    offset i are prefix[i + m] - prefix[i], in the same dtype."""
    prefix = np.zeros((s.height + 1, s.width), dtype=sum_dtype(255 * s.height))
    # Widen first, then sum in place: cumsum straight from uint8 is ~3x slower.
    prefix[1:] = s.pixels
    np.cumsum(prefix[1:], axis=0, out=prefix[1:])
    prefix.setflags(write=False)
    return prefix
