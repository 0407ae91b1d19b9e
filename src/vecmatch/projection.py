"""Column-sum projection: 1-D template vectors and the one window-sum kernel.

The reduction maps an m x n image to an n-vector of per-column intensity sums.
The column sums of every m-row window of the reference, like every other
window sum of the package, come from window_sums, so each window costs O(n)
instead of O(m*n).
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


def window_sums(a: np.ndarray, m: int, n: int, peak: int) -> np.ndarray:
    """Sum of every m x n window of a, a non-negative integer array whose
    values are at most peak: a new array of shape (p-m+1, q-n+1), in
    sum_dtype(peak * m * n). Per axis, a prefix sum and a difference of
    prefixes m (or n) apart, as in a summed-area table (Crow, 1984); an axis
    of window extent 1 is skipped. Either prefix may wrap in that dtype, yet
    every window sum is exact, as its true value fits."""
    dtype = sum_dtype(peak * m * n)
    if m == 1 and n == 1:
        return a.astype(dtype)
    sums = a
    if m > 1:
        # Widen first, then sum in place: cumsum straight from uint8 is ~3x slower.
        cum = a.astype(dtype)
        np.cumsum(cum, axis=0, out=cum)
        sums = np.empty((cum.shape[0] - m + 1, cum.shape[1]), dtype=dtype)
        sums[0] = cum[m - 1]
        np.subtract(cum[m:], cum[:-m], out=sums[1:])
    if n > 1:
        cum = np.cumsum(sums, axis=1, dtype=dtype, out=sums if m > 1 else None)
        sums = np.empty((cum.shape[0], cum.shape[1] - n + 1), dtype=dtype)
        sums[:, 0] = cum[:, n - 1]
        np.subtract(cum[:, n:], cum[:, :-n], out=sums[:, 1:])
    return sums
