"""Brute-force reference implementations of every matcher.

Deliberately naive: every window's sums are recomputed from raw pixels, with
no prefix tables, sliding views, or other machinery shared with the fast
paths. Orders of magnitude slower by design; used only by tests.
"""

from __future__ import annotations

import math

import numpy as np

from .image import GrayImage
from .matchers import DegenerateTemplateError, ScoreMap, _check_fits
from .projection import ColumnVector, VectorMetric


def _offsets(s: GrayImage, t: GrayImage) -> tuple[int, int]:
    _check_fits(s, t)
    return s.height - t.height + 1, s.width - t.width + 1


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


def naive_projected_map(s: GrayImage, t: GrayImage, metric: VectorMetric) -> ScoreMap:
    """Column-sum distances with each window's sums recomputed from pixels."""
    rows, cols = _offsets(s, t)
    m, n = t.height, t.width
    nt = t.pixels.astype(np.int64).sum(axis=0)
    exact = metric is not VectorMetric.EUCLIDEAN
    out = np.empty((rows, cols), dtype=np.int64 if exact else np.float64)
    for i in range(rows):
        for j in range(cols):
            nw = s.pixels[i : i + m, j : j + n].astype(np.int64).sum(axis=0)
            out[i, j] = vec_distance(nw, nt, metric)
    return ScoreMap(out)


def naive_sad_map(s: GrayImage, t: GrayImage) -> ScoreMap:
    """Literal double-loop sum of absolute differences."""
    _offsets(s, t)
    return naive_sad_arrays(s.pixels, t.pixels)


def naive_sad_arrays(s_arr: np.ndarray, t_arr: np.ndarray) -> ScoreMap:
    """naive_sad_map of two arrays of non-negative integers of any range,
    such as the levels of a sum pyramid."""
    m, n = t_arr.shape
    rows, cols = s_arr.shape[0] - m + 1, s_arr.shape[1] - n + 1
    tt = t_arr.astype(np.int64)
    out = np.empty((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            w = s_arr[i : i + m, j : j + n].astype(np.int64)
            out[i, j] = np.abs(w - tt).sum()
    return ScoreMap(out)


def naive_ncc_map(s: GrayImage, t: GrayImage) -> ScoreMap:
    """Literal correlation coefficient with per-window means and variances."""
    _offsets(s, t)
    return naive_ncc_arrays(s.pixels, t.pixels)


def naive_ncc_arrays(s_arr: np.ndarray, t_arr: np.ndarray) -> ScoreMap:
    """naive_ncc_map of two arrays of integer values of any range, such as
    the levels of a sum pyramid."""
    m, n = t_arr.shape
    rows, cols = s_arr.shape[0] - m + 1, s_arr.shape[1] - n + 1
    if int(t_arr.min()) == int(t_arr.max()):
        raise DegenerateTemplateError("template has zero intensity variance")
    tf = t_arr.astype(np.float64)
    tc = tf - tf.mean()
    tvar = float((tc * tc).sum())
    out = np.full((rows, cols), np.nan)
    valid = np.zeros((rows, cols), dtype=bool)
    for i in range(rows):
        for j in range(cols):
            w = s_arr[i : i + m, j : j + n]
            if int(w.min()) == int(w.max()):
                continue
            wf = w.astype(np.float64)
            wc = wf - wf.mean()
            out[i, j] = float((wc * tc).sum()) / math.sqrt(float((wc * wc).sum()) * tvar)
            valid[i, j] = True
    return ScoreMap(out, valid)
