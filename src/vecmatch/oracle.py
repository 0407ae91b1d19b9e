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
from .projection import VectorMetric


def _offsets(s: GrayImage, t: GrayImage) -> tuple[int, int]:
    _check_fits(s, t)
    return s.height - t.height + 1, s.width - t.width + 1


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
            d = nw - nt
            if metric is VectorMetric.SAD:
                out[i, j] = np.abs(d).sum()
            elif metric is VectorMetric.SSD:
                out[i, j] = d @ d
            else:
                out[i, j] = math.sqrt(int(d @ d))
    return ScoreMap(out)


def naive_sad_map(s: GrayImage, t: GrayImage) -> ScoreMap:
    """Literal double-loop sum of absolute differences."""
    rows, cols = _offsets(s, t)
    m, n = t.height, t.width
    tt = t.pixels.astype(np.int64)
    out = np.empty((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            w = s.pixels[i : i + m, j : j + n].astype(np.int64)
            out[i, j] = np.abs(w - tt).sum()
    return ScoreMap(out)


def naive_ncc_map(s: GrayImage, t: GrayImage) -> ScoreMap:
    """Literal correlation coefficient with per-window means and variances."""
    rows, cols = _offsets(s, t)
    m, n = t.height, t.width
    if int(t.pixels.min()) == int(t.pixels.max()):
        raise DegenerateTemplateError("template has zero intensity variance")
    tf = t.pixels.astype(np.float64)
    tc = tf - tf.mean()
    tvar = float((tc * tc).sum())
    out = np.full((rows, cols), np.nan)
    valid = np.zeros((rows, cols), dtype=bool)
    for i in range(rows):
        for j in range(cols):
            w = s.pixels[i : i + m, j : j + n]
            if int(w.min()) == int(w.max()):
                continue
            wf = w.astype(np.float64)
            wc = wf - wf.mean()
            out[i, j] = float((wc * tc).sum()) / math.sqrt(float((wc * wc).sum()) * tvar)
            valid[i, j] = True
    return ScoreMap(out, valid)
