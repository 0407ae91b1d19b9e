"""The seven search algorithms: the projected matcher (vec-ssd, vec-sad,
vec-euclid), full SAD and NCC, and the pyramid searches SADP / NCCP.

Conventions: all offsets are 0-based top-left corners; valid offsets run over
the full inclusive ranges 0..p-m and 0..q-n. Distance metrics are minimized,
NCC is maximized. Ties break to the row-major first occurrence.

The projected matcher's one prelude, _projected, makes its checks, column
sums and, per metric, dense map and gathered scorer; match_projected takes
the map's first minimum, and _match_vec (vec-sad, vec-ssd) searches without it.
Every window sum, of c, W, nccp's moments and sadp's coarse columns, comes
from projection.window_sums; _ssd_map sums c**2 in the copy of c it holds.

Searches that need only the first minimum skip the map by successive
elimination (Li & Salari, 1995) in _first_min: UB is the least exact score at
up to _SEED_COUNT offsets of least lower bound, ties taken in row-major order,
and the offsets whose bound allows a score <= UB are scored in row-major
order; past _SURVIVOR_SHARE of all offsets, all are. _match_vec bounds by
|W - T| (window and template totals), as vec-SAD >= |W - T| and vec-SSD >=
(W - T)**2 / n; sadp's coarse SAD by vec-SAD.
vec-euclid, full sad, match_projected and match_dense (--map) stay dense.

Every SAD map, full sad's, vec-sad's and sadp's coarse bound and fallback,
comes from one full-search kernel, _sad_map: every cell of every window,
one numpy add per template cell and row tile, over int16 differences while
the inputs fit them.

Every NCC, full ncc's map and nccp's coarse map and refinement, comes from
int64 window moments through _ncc_ratio; full ncc and refinement score
gathered windows directly, nccp's coarse map takes its moments from
window_sums. One rule, _flat, says which templates and windows have no NCC.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image import GrayImage
from .projection import VectorMetric, narrow_run, project_template, sum_dtype, window_sums


class TemplateSizeError(ValueError):
    """Template does not fit inside the reference."""


class DegenerateTemplateError(ValueError):
    """Template has zero intensity variance; NCC is undefined."""


class NoCandidateError(ValueError):
    """Every candidate window is degenerate; no NCC maximum exists."""


class ScoreOverflowError(ValueError):
    """The largest integer a score needs for the template shape exceeds int64."""


@dataclass(frozen=True)
class MatchResult:
    row: int
    col: int
    score: int | float  # an int exactly when the metric is exact
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


# Per algorithm: its dense matcher, (s, t) -> (MatchResult, ScoreMap), or
# None; and a matcher (s, t) -> MatchResult that run_algorithm prefers to the
# dense one, or None. The lambdas look a matcher up in this module when
# called, so replacing a module attribute (as tests and tracers do) reaches
# every caller.
_TABLE = {
    "ncc": (lambda s, t: match_full_ncc(s, t), None),
    "sad": (lambda s, t: match_full_sad(s, t), None),
    "nccp": (None, lambda s, t: match_pyramid(s, t, "ncc")),
    "sadp": (None, lambda s, t: match_pyramid(s, t, "sad")),
    "vec-ssd": (lambda s, t: match_projected(s, t, VectorMetric.SSD),
                lambda s, t: _match_vec(s, t, VectorMetric.SSD)),
    "vec-sad": (lambda s, t: match_projected(s, t, VectorMetric.SAD),
                lambda s, t: _match_vec(s, t, VectorMetric.SAD)),
    "vec-euclid": (lambda s, t: match_projected(s, t, VectorMetric.EUCLIDEAN), None),
}
ALGORITHMS = tuple(_TABLE)


def algorithm_entry(name: str) -> tuple[Callable | None, Callable | None]:
    """(dense matcher, map-free matcher) of a name, either one None."""
    if name not in _TABLE:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    return _TABLE[name]


def _check_fits(s: GrayImage, t: GrayImage) -> None:
    if not isinstance(s, GrayImage) or not isinstance(t, GrayImage):
        raise TypeError(f"expected GrayImages, got {type(s).__name__}, {type(t).__name__}")
    if t.height > s.height or t.width > s.width:
        raise TemplateSizeError(
            f"template {t.height}x{t.width} exceeds reference {s.height}x{s.width}"
        )


_INT64_MAX = int(np.iinfo(np.int64).max)
# float64 represents every integer up to 2**53 exactly.
_FLOAT_EXACT_MAX = 2**53
# Offsets per matrix product in _window_dots.
_DOT_BLOCK = 64
# Accumulator cells per row tile of _sad_map (_SAD_TILE // q offset rows),
# and most cells per gather of _gathered.
_SAD_TILE = 1 << 16
_SEED_COUNT = 64
_SURVIVOR_SHARE = 1 / 8
# Chebyshev radius of each pyramid refinement around the doubled best offset.
_RADIUS = 2


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
    """Largest product of integer moments in _ncc_ratio for a template of
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


def _argmax_valid(scores: np.ndarray) -> tuple[int, int]:
    """First maximum of an NCC map, whose degenerate cells are NaN."""
    if np.isnan(scores).all():
        raise NoCandidateError("all candidate windows are degenerate")
    return divmod(int(np.nanargmax(scores)), scores.shape[1])


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


def build_column_sum_table(s: GrayImage, m: int) -> np.ndarray:
    """c, the column sums of every m-row window of s, (p-m+1, q), in
    0..255*m; a name of its own, so that perfbench's tracer times it."""
    return window_sums(s.pixels, m, 1, 255)


def _projected(s: GrayImage, t: GrayImage, metric: VectorMetric):
    """The projected matcher's prelude: checks that t fits (and _ssd_bound for
    SSD and Euclid), then gives c, the column sums of the windows at every row
    offset, (p-m+1, q), in 0..255*m; v, those of t; a thunk for the metric's
    dense map of v over c; and its scorer for _gathered."""
    _check_fits(s, t)
    m = t.height
    if metric is not VectorMetric.SAD:
        _ssd_bound(m, t.width)
    c, v = build_column_sum_table(s, m), project_template(t)
    if metric is VectorMetric.SAD:
        return c, v, lambda: _sad_map(c, v[None]), _sad_scores
    return c, v, lambda: _ssd_map(c, v, 255 * m), _ssd_scores


_VEC_NAME = {VectorMetric.SSD: "vec-ssd", VectorMetric.SAD: "vec-sad",
             VectorMetric.EUCLIDEAN: "vec-euclid"}


def match_projected(
    s: GrayImage, t: GrayImage, metric: VectorMetric
) -> tuple[MatchResult, ScoreMap]:
    """Dimension-reduction matcher: compare 1-D column-sum vectors at every offset."""
    start = time.perf_counter_ns()
    scores = _projected(s, t, metric)[2]()
    row, col = _argmin_first(scores)
    if metric is VectorMetric.EUCLIDEAN:
        scores = scores.astype(np.float64, copy=False)
        np.sqrt(scores, out=scores)
        best: float = float(scores[row, col])
    else:
        scores = scores.astype(np.int64, copy=False)
        best = int(scores[row, col])
    elapsed = time.perf_counter_ns() - start
    return MatchResult(row, col, best, _VEC_NAME[metric], elapsed), ScoreMap(scores)


def _sad_map(s_arr: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """int64 full-search SAD map of non-negative integer arrays: every cell
    of every window differenced and summed, O(m*n) per offset.

    Shift and accumulate over row tiles of _SAD_TILE // q offset rows, so
    the buffers stay in cache. The reference is one flat vector of row
    stride q, padded by n - 1 cells, so template cell (a, b) adds the
    contiguous slice D[a*q + b :][: h*q] into an h*q accumulator whose
    columns from cols on are never read. D = |band - v| is taken once per
    distinct template value v, over the span of the tile's band that the
    cells holding v read, so each cell costs one add.

    No |s - t| exceeds the larger of the two maxima, peak. While
    narrow_run(peak) is nonzero, D is int16 and is summed through its
    uint16 view into uint16 partials, which flush into the
    sum_dtype(peak * m * n) total every narrow_run(peak) cells (257 for
    pixels); beyond it, D and the partial are of the total's dtype.
    """
    m, n = t_arr.shape
    p, q = s_arr.shape
    rows, cols = p - m + 1, q - n + 1
    peak = int(max(s_arr.max(), t_arr.max()))
    total_dtype = sum_dtype(peak * m * n)
    run = narrow_run(peak)
    d_dtype, part_dtype = (np.int16, np.uint16) if run else (total_dtype, total_dtype)
    run = run or m * n  # a wide partial takes every cell
    flat = np.zeros(p * q + n - 1, dtype=d_dtype)
    flat[: p * q] = s_arr.ravel()
    # flat offsets a*q + b of the cells holding each value, in row-major
    # order; 8 bytes a cell, where a list of ints takes ~40
    groups: dict[int, array] = defaultdict(lambda: array("q"))
    for a, t_row in enumerate(t_arr.tolist()):
        for b, v in enumerate(t_row):
            groups[v].append(a * q + b)
    tile = min(rows, max(1, _SAD_TILE // q))
    d_buf = np.empty((tile + m - 1) * q + n - 1, dtype=d_dtype)
    part = np.empty(tile * q, dtype=part_dtype)
    total = np.empty(tile * q, dtype=total_dtype)
    out = np.empty((rows, cols), dtype=np.int64)
    for r0 in range(0, rows, tile):
        h = min(tile, rows - r0)
        size = h * q
        part_h, total_h = part[:size], total[:size]
        part_h.fill(0)
        total_h.fill(0)
        added = 0
        for v, offsets in groups.items():
            lo = offsets[0]
            band = flat[r0 * q + lo : r0 * q + offsets[-1] + size]
            d = np.subtract(band, v, out=d_buf[: band.size])
            d = np.abs(d, out=d).view(part_dtype)
            for o in offsets:
                np.add(part_h, d[o - lo : o - lo + size], out=part_h)
                added += 1
                if added % run == 0:
                    total_h += part_h
                    part_h.fill(0)
        total_h += part_h
        out[r0 : r0 + h] = total_h.reshape(h, q)[:, :cols]
    return out


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


def _ncc_scorer(t_arr: np.ndarray) -> Callable:
    """Scorer for _gathered of the NCC of each window with t_arr, from the
    windows' int64 moments and t_arr's, taken once (_ncc_template); the
    template _gathered passes is t_arr and goes unused."""
    tm = _ncc_template(t_arr)
    def score(w: np.ndarray, t: np.ndarray) -> np.ndarray:
        w = w.astype(np.int64)
        wt = np.einsum("kij,ij->k", w, tm[0])
        s1 = w.sum(axis=(1, 2))
        np.multiply(w, w, out=w)
        return _ncc_ratio(s1, w.sum(axis=(1, 2)), wt, tm)
    return score


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
    # and the first offsets at it up to _SEED_COUNT in all; index arrays
    # over the offsets below it and those tied at it, not over all offsets
    below = np.flatnonzero(bound < kth)
    seeds = np.append(below, np.flatnonzero(bound == kth)[: nth + 1 - below.size])
    keep = bound <= keep_below(int(exact(seeds).min()))
    if np.count_nonzero(keep) > _SURVIVOR_SHARE * bound.size:
        keep, scores = range(bound.size), dense().ravel()
    else:
        keep = np.flatnonzero(keep)
        scores = exact(keep)
    k = int(np.argmin(scores))
    return *divmod(int(keep[k]), cols), int(scores[k])


def _match_vec(s: GrayImage, t: GrayImage, metric: VectorMetric) -> MatchResult:
    """vec-sad's or vec-ssd's result from _first_min, without a score map.
    Both are bounded by |W - T|: vec-SAD >= |W - T|, and by Cauchy-Schwarz
    (W - T)**2 <= n * vec-SSD."""
    start = time.perf_counter_ns()
    c, v, dense, score = _projected(s, t, metric)
    keep_below = ((lambda ub: ub) if metric is VectorMetric.SAD
                  else lambda ub: math.isqrt(t.width * ub))
    # W is in sum_dtype(255 * m * n), where T fits too
    gaps = window_sums(c, 1, t.width, 255 * t.height)
    gaps -= int(v.sum())
    row, col, best = _first_min(np.abs(gaps, out=gaps), keep_below,
                                _gathered(c, v[None], score), dense)
    return MatchResult(row, col, best, _VEC_NAME[metric], time.perf_counter_ns() - start)


def match_full_sad(s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Conventional full-search sum of absolute differences."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    scores = _sad_map(s.pixels, t.pixels)
    row, col = _argmin_first(scores)
    elapsed = time.perf_counter_ns() - start
    return MatchResult(row, col, int(scores[row, col]), "sad", elapsed), ScoreMap(scores)


def _flat(energy, area: int):
    """NCC's one degeneracy rule, for a template or, elementwise, windows of
    `area` integer cells with centered energy times area, A*S2 - S1**2 (S1
    and S2 the sum and the sum of squares): flat when that is at most 0.4*A,
    below what a single one-step deviation from the mean produces. Cells that
    are not all equal give at least A - 1, so for A > 1 flat means constant."""
    return energy <= 0.4 * area


def _template_moments(t_arr: np.ndarray) -> tuple[np.ndarray, int, int]:
    """t_arr as int64, its sum St, and A*T2 - St**2 (A cells, T2 the sum of
    squares): its centered energy times A, exact."""
    t64 = t_arr.astype(np.int64)
    st = int(t64.sum())
    return t64, st, t_arr.size * int(np.einsum("ij,ij->", t64, t64)) - st * st


def _ncc_template(t_arr: np.ndarray) -> tuple[np.ndarray, int, int]:
    """_template_moments of an NCC template; DegenerateTemplateError if flat."""
    tm = _template_moments(t_arr)
    if _flat(tm[2], t_arr.size):
        raise DegenerateTemplateError("template has zero intensity variance")
    return tm


def _ncc_ratio(s1: np.ndarray, s2: np.ndarray, wt: np.ndarray, tm: tuple) -> np.ndarray:
    """NCC of windows from their int64 moments and the template's, tm from
    _ncc_template (Lewis, "Fast Normalized Cross-Correlation", 1995): S1 and
    S2, the sum and the sum of squares, and WT = w.t. With A template cells,
    ncc = (A*WT - S1*St) / sqrt((A*S2 - S1**2) * (A*T2 - St**2)), all int64
    up to the final ratio; the caller's _moment_bound keeps every product in
    range. A _flat window's score is NaN. s1, s2 and wt are overwritten."""
    t64, st, energy = tm
    wt *= t64.size
    wt -= s1 * st
    s2 *= t64.size
    s2 -= np.square(s1, out=s1)
    scores = np.multiply(s2, float(energy), dtype=np.float64)
    scores[_flat(s2, t64.size)] = np.nan
    np.sqrt(scores, out=scores)
    return np.divide(wt, scores, out=scores)


def _ncc_moment_map(s_arr: np.ndarray, t_arr: np.ndarray, k: int) -> np.ndarray:
    """NCC map of level k of the sum pyramid, whose values are integers in
    0..255*4**k, from _ncc_ratio, NaN where a window is _flat. Per window,
    S1 and S2 come from window_sums, and WT from one _window_dots map per
    template row.
    """
    m, n = t_arr.shape
    _moment_bound(k, m * n)
    tm = _ncc_template(t_arr)
    rows = s_arr.shape[0] - m + 1
    peak = 255 * 4**k
    wt = _window_dots(s_arr[:rows], t_arr[0], peak)
    for a in range(1, m):
        wt += _window_dots(s_arr[a : a + rows], t_arr[a], peak)
    # int64, as _ncc_ratio squares and scales the moments in place
    s1 = window_sums(s_arr, m, n, peak).astype(np.int64, copy=False)
    s2 = window_sums(np.square(s_arr, dtype=sum_dtype(peak**2)), m, n,
                     peak**2).astype(np.int64, copy=False)
    return _ncc_ratio(s1, s2, wt, tm)


def match_full_ncc(s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Conventional full-search normalized cross correlation (maximized): the
    windows at every offset, gathered and scored directly by _ncc_scorer."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    _moment_bound(0, t.pixels.size)
    exact = _gathered(s.pixels, t.pixels, _ncc_scorer(t.pixels))
    rows, cols = s.height - t.height + 1, s.width - t.width + 1
    scores = exact(np.arange(rows * cols)).reshape(rows, cols)
    row, col = _argmax_valid(scores)
    elapsed = time.perf_counter_ns() - start
    return (
        MatchResult(row, col, float(scores[row, col]), "ncc", elapsed),
        ScoreMap(scores, ~np.isnan(scores)),
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
        a = prev[: 2 * h2, : 2 * w2].astype(sum_dtype(255 * 4**k), copy=False)
        levels.append(a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])
    return levels


def auto_pyramid_levels(t: GrayImage) -> int:
    """Level count keeping the coarsest template side at least 8 pixels. The
    reference is at least as large as the template, so it halves as often."""
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
        m, peak = t_level.shape[0], 255 * 4**k
        vec_sad = _sad_map(window_sums(s_level, m, 1, peak), window_sums(t_level, m, 1, peak))
        return _first_min(vec_sad, lambda ub: ub, _gathered(s_level, t_level, _sad_scores),
                          lambda: _sad_map(s_level, t_level))
    coarse = _ncc_moment_map(s_level, t_level, k)
    br, bc = _argmax_valid(coarse)
    return br, bc, float(coarse[br, bc])


def match_pyramid(s: GrayImage, t: GrayImage, base: str = "sad") -> MatchResult:
    """Coarse-to-fine search on the sum pyramid, auto_pyramid_levels(t)
    deep: full search at the coarsest level, then refine within _RADIUS
    (Chebyshev) of the doubled best position per level. NCC starts from the
    deepest level at which the template still varies."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    if base not in ("sad", "ncc"):
        raise ValueError(f"unknown base metric {base!r}; expected 'sad' or 'ncc'")
    if base == "ncc":
        _moment_bound(0, t.pixels.size)  # no level needs larger moments
        _ncc_template(t.pixels)
    depth = auto_pyramid_levels(t)
    s_levels = _pyramid_levels(s.pixels, depth)
    t_levels = _pyramid_levels(t.pixels, depth)

    k = depth - 1
    if base == "ncc":
        # 2x2 sums can flatten a template, as they turn a checkerboard into
        # one gray; search from the deepest level where it still varies.
        while k > 0 and _flat(_template_moments(t_levels[k])[2], t_levels[k].size):
            k -= 1
    br, bc, best = _coarse_search(s_levels[k], t_levels[k], base, k)

    # The first least SAD or greatest valid NCC. A neighbourhood holds a valid
    # NCC: the window covering the valid coarse one is not flat, so its
    # centered energy is >= 1/2 > 0.4.
    pick = np.argmin if base == "sad" else np.nanargmax
    for k in range(k - 1, -1, -1):
        sk, tk = s_levels[k], t_levels[k]
        m, n = tk.shape
        cr, cc = 2 * br, 2 * bc
        r1, c1 = min(sk.shape[0] - m, cr + _RADIUS), min(sk.shape[1] - n, cc + _RADIUS)
        # the doubled position can pass the last offset by one; keep that offset
        r0, c0 = min(r1, max(0, cr - _RADIUS)), min(c1, max(0, cc - _RADIUS))
        cols = c1 - c0 + 1
        score = _sad_scores if base == "sad" else _ncc_scorer(tk)
        exact = _gathered(sk[r0 : r1 + m, c0 : c1 + n], tk, score)
        scores = exact(np.arange((r1 - r0 + 1) * cols))
        f = int(pick(scores))
        best, br, bc = scores[f], r0 + f // cols, c0 + f % cols

    elapsed = time.perf_counter_ns() - start
    if base == "sad":
        return MatchResult(br, bc, int(best), "sadp", elapsed)
    return MatchResult(br, bc, float(best), "nccp", elapsed)


def match_dense(name: str, s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Result and score map of a dense (full-search) algorithm, from one pass."""
    matcher = algorithm_entry(name)[0]
    if matcher is None:
        raise ValueError(f"no dense score map for algorithm {name!r}")
    return matcher(s, t)


def score_map_only(s: GrayImage, t: GrayImage, algorithm: str) -> ScoreMap:
    """Score map for inspection, without the argmin/argmax decision."""
    return match_dense(algorithm, s, t)[1]


def run_algorithm(name: str, s: GrayImage, t: GrayImage) -> MatchResult:
    """Run one of the seven named algorithms."""
    matcher, search = algorithm_entry(name)
    return search(s, t) if search else matcher(s, t)[0]
