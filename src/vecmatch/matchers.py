"""The seven search algorithms: the projected matcher (vec-ssd, vec-sad,
vec-euclid), full SAD and NCC, and the pyramid searches SADP / NCCP.

Conventions: all offsets are 0-based top-left corners; valid offsets run over
the full inclusive ranges 0..p-m and 0..q-n. Distance metrics are minimized,
NCC is maximized. Ties break to the row-major first occurrence.

Searches that need only the first minimum skip the map by successive
elimination (Li & Salari, 1995) in _first_min: UB is the least exact score at
up to _SEED_COUNT offsets of least lower bound, and the offsets whose bound
allows a score <= UB are scored in row-major order; past _SURVIVOR_SHARE of
all offsets, all are. vec-sad and vec-ssd bound by |W - T| (window and
template totals), as vec-SAD >= |W - T| and vec-SSD >= (W - T)**2 / n;
sadp's coarse SAD by vec-SAD.
vec-euclid, full sad, match_projected and match_dense (--map) stay dense.

_ncc_map, float64 over centered window copies, serves only full ncc; nccp
takes every NCC, coarse map and refinement, from int64 window moments
through _ncc_ratio.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image import GrayImage
from .projection import (
    VectorMetric,
    build_column_sum_table,
    project_template,
    sum_dtype,
)


class TemplateSizeError(ValueError):
    """Template does not fit inside the reference."""


class DegenerateTemplateError(ValueError):
    """Template has zero intensity variance; NCC is undefined."""


class NoCandidateError(ValueError):
    """Every candidate window is degenerate; no NCC maximum exists."""


class PyramidDepthError(ValueError):
    """Requested level count would shrink a dimension below one pixel."""


class ScoreOverflowError(ValueError):
    """The largest integer a score needs for the template shape exceeds int64."""


@dataclass(frozen=True)
class MatchResult:
    row: int
    col: int
    score: float
    metric: str
    elapsed_ns: int

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / 1e6


class ScoreMap:
    """Dense grid of scores over all valid top-left offsets.

    For NCC, cells whose window has zero variance are NaN and flagged invalid
    in the `valid` mask; `valid is None` means every cell is meaningful.
    """

    __slots__ = ("scores", "valid")

    def __init__(self, scores: np.ndarray, valid: np.ndarray | None = None) -> None:
        self.scores = scores
        self.valid = valid


# Per algorithm: its dense matcher, (s, t) -> (MatchResult, ScoreMap), or the
# base metric of its pyramid search; whether its score is an exact integer;
# and a matcher (s, t) -> MatchResult that run_algorithm prefers to the dense
# one, or None. The lambdas look a matcher up in this module when called, so
# replacing a module attribute (as tests and tracers do) reaches every caller.
_TABLE = {
    "ncc": (lambda s, t: match_full_ncc(s, t), False, None),
    "sad": (lambda s, t: match_full_sad(s, t), True, None),
    "nccp": ("ncc", False, None),
    "sadp": ("sad", True, None),
    "vec-ssd": (lambda s, t: match_projected(s, t, VectorMetric.SSD), True,
                lambda s, t: _match_vec_ssd(s, t)),
    "vec-sad": (lambda s, t: match_projected(s, t, VectorMetric.SAD), True,
                lambda s, t: _match_vec_sad(s, t)),
    "vec-euclid": (lambda s, t: match_projected(s, t, VectorMetric.EUCLIDEAN), False, None),
}
ALGORITHMS = tuple(_TABLE)


def algorithm_entry(name: str) -> tuple[Callable | str, bool, Callable | None]:
    """(dense matcher or pyramid base, exact score, map-free matcher) of a name."""
    if name not in _TABLE:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    return _TABLE[name]


def _check_fits(s: GrayImage, t: GrayImage) -> None:
    if t.height > s.height or t.width > s.width:
        raise TemplateSizeError(
            f"template {t.height}x{t.width} exceeds reference {s.height}x{s.width}"
        )


_INT64_MAX = int(np.iinfo(np.int64).max)
# float64 represents every integer up to 2**53 exactly.
_FLOAT_EXACT_MAX = 2**53
# Offsets per matrix product in _window_dots.
_DOT_BLOCK = 64
# Offsets per row tile of _sad_map, and most cells per gather of _gathered.
_SAD_TILE = 1 << 16
_SEED_COUNT = 64
_SURVIVOR_SHARE = 1 / 8


def _fits_int64(worst: int, what: str) -> int:
    if worst > _INT64_MAX:
        raise ScoreOverflowError(
            f"{what} can reach {worst}, beyond int64 ({_INT64_MAX})"
        )
    return worst


def _ssd_bound(m: int, n: int) -> int:
    """Largest SSD, and largest window dot product w.t, that an m x n template
    can produce: (255*m)**2 * n. Raises ScoreOverflowError past int64."""
    return _fits_int64((255 * m) ** 2 * n, f"template {m}x{n}")


def _moment_bound(k: int, area: int) -> int:
    """Largest product of integer moments in _ncc_moment_map for a template of
    `area` pixels at pyramid level k: (255 * 4**k * area)**2. Raises
    ScoreOverflowError past int64."""
    return _fits_int64((255 * 4**k * area) ** 2, f"level-{k} template of {area} pixels")


def _window_dots(c: np.ndarray, v: np.ndarray, c_max: int, dtype: type = np.int64) -> np.ndarray:
    """Map of v . c[i, j : j + len(v)] for every row i and offset j.

    c holds integers in 0..c_max and v non-negative integers, so every partial
    sum of a dot product is an integer no larger than c_max * sum(v). While
    that is within _FLOAT_EXACT_MAX, where float64 is exact, each block of
    _DOT_BLOCK offsets is one float64 matrix product against a banded Toeplitz
    copy of v, band[r, j] = v[r - j], stored in a map of `dtype`; a float64 c
    is read as it is, other dtypes through one float64 copy. Beyond it, one
    int64 einsum over the sliding view gives an int64 map.
    """
    n = v.shape[0]
    if c_max * int(v.sum()) > _FLOAT_EXACT_MAX:
        return np.einsum("ijk,k->ij", sliding_window_view(c, n, axis=1), v, dtype=np.int64)
    rows, cols = c.shape[0], c.shape[1] - n + 1
    block = min(_DOT_BLOCK, cols)
    pad = np.zeros(n + 2 * (block - 1))
    pad[block - 1 : block - 1 + n] = v
    band = np.ascontiguousarray(sliding_window_view(pad, block)[: block + n - 1, ::-1])
    cf = c.astype(np.float64, copy=False)
    out = np.empty((rows, cols), dtype=dtype)
    for j in range(0, cols, block):
        b = min(block, cols - j)
        out[:, j : j + b] = cf[:, j : j + b + n - 1] @ band[: b + n - 1, :b]
    return out


def _argmin_first(scores: np.ndarray) -> tuple[int, int]:
    flat = int(np.argmin(scores))
    return flat // scores.shape[1], flat % scores.shape[1]


def _argmax_valid(scores: np.ndarray, valid: np.ndarray | None) -> tuple[int, int]:
    if valid is None:
        masked = scores
    else:
        if not valid.any():
            raise NoCandidateError("all candidate windows are degenerate")
        masked = np.where(valid, scores, -np.inf)
    flat = int(np.argmax(masked))
    return flat // scores.shape[1], flat % scores.shape[1]


def _column_sums(s: GrayImage, t: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of the windows at every row offset, (p-m+1, q), and of t."""
    prefix = build_column_sum_table(s)
    return prefix[t.height :] - prefix[: -t.height], project_template(t)


def _ssd_map(c: np.ndarray, v: np.ndarray, c_max: int) -> np.ndarray:
    """|w - v|^2 = sum(w^2) - 2 w.v + sum(v^2) for every window w of c, whose
    values are in 0..c_max, as exact integers in a float64 or int64 map.

    c is copied once, and the copy serves _window_dots for w.v and then holds
    the squares and their horizontal prefix, from which sum(w^2) comes. No
    partial sum, prefix or intermediate map value exceeds 2 * q * c_max**2 in
    magnitude (q, c's width; -2 w.v reaches 2 * n * c_max**2), so while that
    is within _FLOAT_EXACT_MAX the copy and the map are float64 and exact.
    Beyond it they are int64, whose arithmetic wraps mod 2**64: the prefix
    and the middle terms may wrap, yet every score is exact, as _ssd_bound
    keeps the true value in range."""
    n = v.shape[0]
    exact_in_float = 2 * c.shape[1] * c_max**2 <= _FLOAT_EXACT_MAX
    w = c.astype(np.float64 if exact_in_float else np.int64)
    scores = _window_dots(w, v, c_max, w.dtype)
    scores *= -2
    scores += v @ v
    np.multiply(w, w, out=w)
    np.cumsum(w, axis=1, out=w)
    scores += w[:, n - 1 :]
    scores[:, 1:] -= w[:, :-n]
    return scores


def match_projected(
    s: GrayImage, t: GrayImage, metric: VectorMetric
) -> tuple[MatchResult, ScoreMap]:
    """Dimension-reduction matcher: compare 1-D column-sum vectors at every offset."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    m, n = t.height, t.width
    if metric is not VectorMetric.SAD:
        _ssd_bound(m, n)
    col2d, nt = _column_sums(s, t)
    if metric is VectorMetric.SAD:
        # A 1 x n template over the column-sum image.
        scores = _sad_map(col2d, nt[None, :])
    else:
        scores = _ssd_map(col2d, nt, 255 * m)
    row, col = _argmin_first(scores)
    if metric is VectorMetric.EUCLIDEAN:
        scores = scores.astype(np.float64, copy=False)
        np.sqrt(scores, out=scores)
        best: float = float(scores[row, col])
        name = "vec-euclid"
    else:
        scores = scores.astype(np.int64, copy=False)
        best = int(scores[row, col])
        name = "vec-ssd" if metric is VectorMetric.SSD else "vec-sad"
    elapsed = time.perf_counter_ns() - start
    return MatchResult(row, col, best, name, elapsed), ScoreMap(scores)


def _sad_map(s_arr: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """int64 full-search SAD map of non-negative integer arrays.

    Shift and accumulate: for each template cell (a, b), add
    |s[a : a + rows, b : b + cols] - t[a, b]| into the map, one row tile of
    about _SAD_TILE offsets at a time so the accumulator and its scratch
    stay in cache. No |s - t| exceeds the larger of the two maxima, peak,
    so the accumulator is sum_dtype(peak * m * n).
    """
    m, n = t_arr.shape
    rows = s_arr.shape[0] - m + 1
    cols = s_arr.shape[1] - n + 1
    dtype = sum_dtype(int(max(s_arr.max(), t_arr.max())) * m * n)
    s_acc = s_arr.astype(dtype, copy=False)
    t_rows = t_arr.tolist()
    out = np.empty((rows, cols), dtype=np.int64)
    tile = min(rows, max(1, _SAD_TILE // cols))
    acc = np.empty((tile, cols), dtype=dtype)
    buf = np.empty_like(acc)
    for r0 in range(0, rows, tile):
        h = min(tile, rows - r0)
        acc_h, buf_h = acc[:h], buf[:h]
        acc_h.fill(0)
        for a, t_row in enumerate(t_rows):
            band = s_acc[r0 + a : r0 + a + h]
            for b, v in enumerate(t_row):
                np.subtract(band[:, b : b + cols], v, out=buf_h)
                np.abs(buf_h, out=buf_h)
                acc_h += buf_h
        out[r0 : r0 + h] = acc_h
    return out


def _total_gaps(c: np.ndarray, v: np.ndarray, c_max: int) -> np.ndarray:
    """|W - T| at every offset of v over c, W and T the window and v totals.
    c holds values in 0..c_max, so no row prefix of c exceeds c_max * q (q,
    c's width): the prefix and the map are in sum_dtype of that."""
    n = v.shape[0]
    cum = np.cumsum(c, axis=1, dtype=sum_dtype(c_max * c.shape[1]))
    gaps = cum[:, n - 1 :] - int(v.sum())
    gaps[:, 1:] -= cum[:, :-n]
    return np.abs(gaps, out=gaps)


def _gathered(a: np.ndarray, t: np.ndarray, score: Callable) -> Callable:
    """Exact scorer of template t over image a: flat offsets -> score(windows,
    t) of the windows at those offsets, (count, m, n), gathered at most
    _SAD_TILE cells at a time."""
    windows = sliding_window_view(a, t.shape)
    def exact(flat: np.ndarray) -> np.ndarray:
        parts = np.array_split(flat, flat.size * t.size // _SAD_TILE + 1)
        return np.concatenate([score(windows[np.unravel_index(f, windows.shape[:2])], t)
                               for f in parts])
    return exact


def _sad_scores(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    d = w - t
    return np.abs(d, out=d).sum(axis=(1, 2))


def _ssd_scores(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    d = w - t
    return np.square(d, out=d).sum(axis=(1, 2))


def _ncc_scores(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """NCC of each window of w with t, from its int64 moments."""
    w = w.astype(np.int64)
    wt = np.einsum("kij,ij->k", w, t.astype(np.int64))
    s1 = w.sum(axis=(1, 2))
    np.multiply(w, w, out=w)
    return _ncc_ratio(s1, w.sum(axis=(1, 2)), wt, t)


def _first_min(bound: np.ndarray, keep_below: Callable, exact: Callable,
               dense: Callable) -> tuple[int, int, int]:
    """First minimum (row, col, score) of the map that dense returns and bound
    bounds below; see the module doc. keep_below maps UB to the largest bound
    of a score <= UB, and exact scores flat offsets."""
    cols = bound.shape[1]
    bound = bound.ravel()
    nth = min(_SEED_COUNT, bound.size) - 1
    kth = np.partition(bound, nth)[nth]
    # the seeds: every offset whose bound is below the _SEED_COUNT-th least,
    # and the first offset at it; no index array over all offsets
    seeds = np.append(np.flatnonzero(bound < kth), np.argmax(bound == kth))
    keep = bound <= keep_below(int(exact(seeds).min()))
    if np.count_nonzero(keep) > _SURVIVOR_SHARE * bound.size:
        keep, scores = range(bound.size), dense().ravel()
    else:
        keep = np.flatnonzero(keep)
        scores = exact(keep)
    k = int(np.argmin(scores))
    return *divmod(int(keep[k]), cols), int(scores[k])


def _match_vec_sad(s: GrayImage, t: GrayImage) -> MatchResult:
    """vec-sad's result from _first_min, without a score map."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    c, nt = _column_sums(s, t)
    row, col, best = _first_min(_total_gaps(c, nt, 255 * t.height), lambda ub: ub,
                                _gathered(c, nt[None], _sad_scores), lambda: _sad_map(c, nt[None]))
    return MatchResult(row, col, best, "vec-sad", time.perf_counter_ns() - start)


def _match_vec_ssd(s: GrayImage, t: GrayImage) -> MatchResult:
    """vec-ssd's result from _first_min, without a score map. By
    Cauchy-Schwarz, (W - T)**2 <= n * vec-SSD."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    _ssd_bound(t.height, t.width)
    c, nt = _column_sums(s, t)
    row, col, best = _first_min(_total_gaps(c, nt, 255 * t.height),
                                lambda ub: math.isqrt(t.width * ub),
                                _gathered(c, nt[None], _ssd_scores),
                                lambda: _ssd_map(c, nt, 255 * t.height))
    return MatchResult(row, col, best, "vec-ssd", time.perf_counter_ns() - start)


def match_full_sad(s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Conventional full-search sum of absolute differences."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    scores = _sad_map(s.pixels, t.pixels)
    row, col = _argmin_first(scores)
    elapsed = time.perf_counter_ns() - start
    return MatchResult(row, col, int(scores[row, col]), "sad", elapsed), ScoreMap(scores)


def _ncc_map(s_arr: np.ndarray, t_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-search correlation map with per-window mean/variance recomputed.

    A window is degenerate when its centered energy falls below what a single
    one-step deviation from its mean would produce.
    """
    m, n = t_arr.shape
    rows = s_arr.shape[0] - m + 1
    cols = s_arr.shape[1] - n + 1
    area = m * n
    threshold = 0.4
    tc = (t_arr - t_arr.mean()).ravel()
    tnorm2 = float(tc @ tc)
    if tnorm2 <= threshold:
        raise DegenerateTemplateError("template has zero intensity variance")
    scores = np.full((rows, cols), np.nan)
    valid = np.zeros((rows, cols), dtype=bool)
    for i in range(rows):
        w = sliding_window_view(s_arr[i : i + m], (m, n))[0]
        wmean = w.mean(axis=(1, 2))
        wc = (w - wmean[:, None, None]).reshape(cols, area)
        wnorm2 = np.einsum("jk,jk->j", wc, wc)
        num = wc @ tc
        ok = wnorm2 > threshold
        valid[i] = ok
        scores[i, ok] = num[ok] / np.sqrt(wnorm2[ok] * tnorm2)
    return scores, valid


def _window_sums(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """int64 sum of every m x n window of a, from an integral image. The
    integral image may wrap past int64; each window sum is still exact while
    its true value fits."""
    ii = np.zeros((a.shape[0] + 1, a.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(a, axis=0, dtype=np.int64), axis=1, out=ii[1:, 1:])
    return ii[m:, n:] - ii[:-m, n:] - ii[m:, :-n] + ii[:-m, :-n]


def _template_energy(t_arr: np.ndarray) -> int:
    """A*T2 - St**2 of an integer template (A cells, sum St, sum of squares
    T2): its centered energy times A, exact."""
    t64 = t_arr.astype(np.int64)
    st = int(t64.sum())
    return t_arr.size * int(np.einsum("ij,ij->", t64, t64)) - st * st


def _ncc_ratio(s1: np.ndarray, s2: np.ndarray, wt: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """NCC of windows of t_arr's shape from their int64 moments (Lewis, "Fast
    Normalized Cross-Correlation", 1995): S1 and S2, the sum and the sum of
    squares, and WT = w.t. With A template cells, ncc = (A*WT - S1*St) /
    sqrt((A*S2 - S1**2) * (A*T2 - St**2)), all int64 up to the final ratio;
    the caller's _moment_bound keeps every product in range. A window is
    degenerate, and its score NaN, when its centered energy falls below what
    a single one-step deviation from its mean would produce: A*S2 - S1**2 <=
    0.4*A. s2 and wt are overwritten."""
    area = t_arr.size
    s2 *= area
    s2 -= s1 * s1
    wt *= area
    wt -= s1 * int(t_arr.sum(dtype=np.int64))
    valid = s2 > 0.4 * area
    scores = np.full(wt.shape, np.nan)
    scores[valid] = wt[valid] / np.sqrt(s2[valid] * float(_template_energy(t_arr)))
    return scores


def _ncc_moment_map(
    s_arr: np.ndarray, t_arr: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """NCC map and validity mask of level k of the sum pyramid, whose values
    are integers in 0..255*4**k, from _ncc_ratio. Per window, S1 and S2 come
    from integral images, and WT from one _window_dots map per template row.
    """
    m, n = t_arr.shape
    area = m * n
    _moment_bound(k, area)
    if _template_energy(t_arr) <= 0.4 * area:
        raise DegenerateTemplateError("template has zero intensity variance")
    rows = s_arr.shape[0] - m + 1
    s64 = s_arr.astype(np.int64)
    peak = 255 * 4**k
    wt = _window_dots(s_arr[:rows], t_arr[0], peak)
    for a in range(1, m):
        wt += _window_dots(s_arr[a : a + rows], t_arr[a], peak)
    scores = _ncc_ratio(_window_sums(s_arr, m, n), _window_sums(s64 * s64, m, n), wt, t_arr)
    return scores, ~np.isnan(scores)


def match_full_ncc(s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Conventional full-search normalized cross correlation (maximized)."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    scores, valid = _ncc_map(s.pixels.astype(np.float64), t.pixels.astype(np.float64))
    row, col = _argmax_valid(scores, valid)
    elapsed = time.perf_counter_ns() - start
    return (
        MatchResult(row, col, float(scores[row, col]), "ncc", elapsed),
        ScoreMap(scores, valid),
    )


def _pyramid_levels(pixels: np.ndarray, count: int) -> list[np.ndarray]:
    """Sum pyramid of uint8 pixels: level 0 is the pixels as int32, and a
    level-k cell is the exact sum of the 4**k pixels under it, built from
    2x2 blocks of level k-1, whose odd trailing row and column drop. Level k
    is int32 while its largest value 255 * 4**k fits, int64 beyond."""
    levels = [pixels.astype(np.int32)]
    for k in range(1, count):
        prev = levels[-1]
        h2, w2 = prev.shape[0] // 2, prev.shape[1] // 2
        if h2 < 1 or w2 < 1:
            raise PyramidDepthError(f"cannot halve {prev.shape[0]}x{prev.shape[1]} further")
        a = prev[: 2 * h2, : 2 * w2].astype(sum_dtype(255 * 4**k), copy=False)
        levels.append(a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])
    return levels


def auto_pyramid_levels(t: GrayImage) -> int:
    """Level count keeping the coarsest template side at least 8 pixels."""
    side = min(t.height, t.width)
    if side < 16:
        return 1
    return max(1, int(math.floor(math.log2(side / 8))) + 1)


def _coarse_search(
    s_level: np.ndarray, t_level: np.ndarray, base: str, k: int
) -> tuple[int, int, float]:
    """Full search at level k of the sum pyramid: best (row, col, score).
    Every SAD there is 4**k times that of the mean pyramid, so its best
    offset is the same, ties included, and NCC is the same up to rounding.
    SAD runs _first_min, bounded by the level's vec-SAD map."""
    if base == "sad":
        m = t_level.shape[0]
        vec_sad = _sad_map(_window_sums(s_level, m, 1), _window_sums(t_level, m, 1))
        return _first_min(vec_sad, lambda ub: ub, _gathered(s_level, t_level, _sad_scores),
                          lambda: _sad_map(s_level, t_level))
    coarse, valid = _ncc_moment_map(s_level, t_level, k)
    br, bc = _argmax_valid(coarse, valid)
    return br, bc, float(coarse[br, bc])


def match_pyramid(
    s: GrayImage,
    t: GrayImage,
    base: str = "sad",
    levels: int | None = None,
    radius: int = 2,
) -> MatchResult:
    """Coarse-to-fine search on the sum pyramid: full search at the coarsest
    level, then refine within a Chebyshev neighborhood of the doubled best
    position per level.

    With automatic depth (levels=None), NCC starts from the deepest level at
    which the template still varies; an explicit depth whose coarsest
    template is flat raises DegenerateTemplateError."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    if base not in ("sad", "ncc"):
        raise ValueError(f"unknown base metric {base!r}; expected 'sad' or 'ncc'")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if base == "ncc":
        _moment_bound(0, t.pixels.size)  # no level needs larger moments
        if int(t.pixels.min()) == int(t.pixels.max()):
            raise DegenerateTemplateError("template has zero intensity variance")
    depth = auto_pyramid_levels(t) if levels is None else levels
    if depth < 1:
        raise PyramidDepthError("level count must be at least 1")
    s_levels = _pyramid_levels(s.pixels, depth)
    t_levels = _pyramid_levels(t.pixels, depth)

    k = depth - 1
    if base == "ncc" and levels is None:
        # 2x2 sums can flatten a template, as they turn a checkerboard into
        # one gray; search from the deepest level where it still varies.
        while k > 0 and _template_energy(t_levels[k]) <= 0.4 * t_levels[k].size:
            k -= 1
    br, bc, best = _coarse_search(s_levels[k], t_levels[k], base, k)

    # The first least SAD or greatest valid NCC. A neighbourhood holds a valid
    # NCC: the window covering the valid coarse one is not flat, so its
    # centered energy is >= 1/2 > 0.4.
    score, pick = (_sad_scores, np.argmin) if base == "sad" else (_ncc_scores, np.nanargmax)
    for k in range(k - 1, -1, -1):
        sk, tk = s_levels[k], t_levels[k]
        m, n = tk.shape
        cr, cc = 2 * br, 2 * bc
        r1, c1 = min(sk.shape[0] - m, cr + radius), min(sk.shape[1] - n, cc + radius)
        # the doubled position can pass the last offset by one; keep that offset
        r0, c0 = min(r1, max(0, cr - radius)), min(c1, max(0, cc - radius))
        cols = c1 - c0 + 1
        exact = _gathered(sk[r0 : r1 + m, c0 : c1 + n], tk, score)
        scores = exact(np.arange((r1 - r0 + 1) * cols))
        f = int(pick(scores))
        best, br, bc = scores[f], r0 + f // cols, c0 + f % cols

    elapsed = time.perf_counter_ns() - start
    name = "sadp" if base == "sad" else "nccp"
    return MatchResult(br, bc, float(best), name, elapsed)


def match_dense(name: str, s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Result and score map of a dense (full-search) algorithm, from one pass."""
    matcher = algorithm_entry(name)[0]
    if isinstance(matcher, str):
        raise ValueError(f"no dense score map for algorithm {name!r}")
    return matcher(s, t)


def score_map_only(s: GrayImage, t: GrayImage, algorithm: str) -> ScoreMap:
    """Score map for inspection, without the argmin/argmax decision."""
    return match_dense(algorithm, s, t)[1]


def run_algorithm(
    name: str,
    s: GrayImage,
    t: GrayImage,
    levels: int | None = None,
    radius: int = 2,
) -> MatchResult:
    """Run one of the seven named algorithms."""
    matcher, _, search = algorithm_entry(name)
    if isinstance(matcher, str):
        return match_pyramid(s, t, base=matcher, levels=levels, radius=radius)
    return search(s, t) if search else matcher(s, t)[0]
