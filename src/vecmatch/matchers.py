"""The five search algorithms: projected matcher, full SAD, full NCC, and
the pyramid-accelerated variants SADP / NCCP.

Conventions: all offsets are 0-based top-left corners; valid offsets run over
the full inclusive ranges 0..p-m and 0..q-n. Distance metrics are minimized,
NCC is maximized. Ties break to the row-major first occurrence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image import GrayImage
from .projection import (
    VectorMetric,
    build_column_sum_table,
    project_template,
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

    @property
    def rows(self) -> int:
        return self.scores.shape[0]

    @property
    def cols(self) -> int:
        return self.scores.shape[1]


ALGORITHMS = ("ncc", "sad", "nccp", "sadp", "vec-ssd", "vec-sad", "vec-euclid")

_VEC_METRIC = {
    "vec-ssd": VectorMetric.SSD,
    "vec-sad": VectorMetric.SAD,
    "vec-euclid": VectorMetric.EUCLIDEAN,
}


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
_INT32_MAX = int(np.iinfo(np.int32).max)
# Offsets per row tile of _sad_map.
_SAD_TILE = 1 << 16


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


def _window_dots(c: np.ndarray, v: np.ndarray, c_max: int) -> np.ndarray:
    """int64 map of v . c[i, j : j + len(v)] for every row i and offset j.

    c holds integers in 0..c_max and v non-negative integers, so every partial
    sum of a dot product is an integer no larger than c_max * sum(v). While
    that is within _FLOAT_EXACT_MAX, where float64 is exact, each block of
    _DOT_BLOCK offsets is one float64 matrix product against a banded Toeplitz
    copy of v, band[r, j] = v[r - j]. Beyond it, one int64 einsum over the
    sliding view.
    """
    n = v.shape[0]
    if c_max * int(v.sum()) > _FLOAT_EXACT_MAX:
        return np.einsum("ijk,k->ij", sliding_window_view(c, n, axis=1), v, dtype=np.int64)
    rows, cols = c.shape[0], c.shape[1] - n + 1
    block = min(_DOT_BLOCK, cols)
    pad = np.zeros(n + 2 * (block - 1))
    pad[block - 1 : block - 1 + n] = v
    band = np.ascontiguousarray(sliding_window_view(pad, block)[: block + n - 1, ::-1])
    cf = c.astype(np.float64)
    out = np.empty((rows, cols), dtype=np.int64)
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


def match_projected(
    s: GrayImage, t: GrayImage, metric: VectorMetric
) -> tuple[MatchResult, ScoreMap]:
    """Dimension-reduction matcher: compare 1-D column-sum vectors at every offset."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    m, n = t.height, t.width
    if metric is not VectorMetric.SAD:
        _ssd_bound(m, n)
    nt = project_template(t)
    table = build_column_sum_table(s, m)
    # (p-m+1, q) windowed column sums for every row offset at once.
    col2d = table.prefix[m:] - table.prefix[:-m]
    if metric is VectorMetric.SAD:
        # A 1 x n template over the column-sum image.
        scores = _sad_map(col2d, nt[None, :])
    else:
        # |w - t|^2 = sum(w^2) - 2 w.t + sum(t^2) at every offset. sum(w^2)
        # is a horizontal prefix of the squared column sums, built in col2d's
        # own buffer once w.t is done. int64 arithmetic wraps mod 2**64, so
        # the prefix and the middle terms may wrap, yet every score is exact:
        # _ssd_bound keeps the true value in range.
        scores = _window_dots(col2d, nt, 255 * m)
        scores *= -2
        scores += nt @ nt
        cum = col2d
        np.multiply(cum, cum, out=cum)
        np.cumsum(cum, axis=1, out=cum)
        scores += cum[:, n - 1 :]
        scores[:, 1:] -= cum[:, :-n]
    row, col = _argmin_first(scores)
    if metric is VectorMetric.EUCLIDEAN:
        scores = np.sqrt(scores.astype(np.float64))
        best: float = float(scores[row, col])
        name = "vec-euclid"
    else:
        best = int(scores[row, col])
        name = "vec-ssd" if metric is VectorMetric.SSD else "vec-sad"
    elapsed = time.perf_counter_ns() - start
    return MatchResult(row, col, best, name, elapsed), ScoreMap(scores)


def _sad_dtype(m: int, n: int, peak: int) -> type:
    """Accumulator of an m x n SAD map over values in 0..peak: int32 while the
    largest score, peak * m * n, fits, int64 beyond."""
    return np.int32 if peak * m * n <= _INT32_MAX else np.int64


def _sad_map(s_arr: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """int64 full-search SAD map of non-negative integer arrays.

    Shift and accumulate: for each template cell (a, b), add
    |s[a : a + rows, b : b + cols] - t[a, b]| into the map, one row tile of
    about _SAD_TILE offsets at a time so the accumulator and its scratch
    stay in cache. No |s - t| exceeds the larger of the two maxima, which
    with the shape picks the accumulator width (_sad_dtype).
    """
    m, n = t_arr.shape
    rows = s_arr.shape[0] - m + 1
    cols = s_arr.shape[1] - n + 1
    dtype = _sad_dtype(m, n, int(max(s_arr.max(), t_arr.max())))
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


def _template_energy(t_arr: np.ndarray, k: int) -> int:
    """A*T2 - St**2 of a level-k template scaled to integers (A pixels, sum St,
    sum of squares T2): its centered energy times A, exact."""
    area = t_arr.size
    _moment_bound(k, area)
    t64 = t_arr.astype(np.int64)
    st = int(t64.sum())
    return area * int(np.einsum("ij,ij->", t64, t64)) - st * st


def _ncc_moment_map(
    s_arr: np.ndarray, t_arr: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The correlation map of _ncc_map for pyramid level k, from exact integer
    moments (Lewis, "Fast Normalized Cross-Correlation", 1995).

    s_arr and t_arr are level k times 4**k, so integers in 0..255*4**k. Per
    window, with A template pixels: S1 and S2, the sum and the sum of squares,
    come from integral images, and WT = w.t from one _window_dots map per
    template row. Then ncc = (A*WT - S1*St) / sqrt((A*S2 - S1**2) *
    (A*T2 - St**2)), all int64 up to the final ratio; _moment_bound keeps
    every product in range. One intensity step of level k is 4**-k, so the
    validity threshold of _ncc_map at that level, 0.4 * (4**-k)**2 on the
    centered energy, reads A*S2 - S1**2 > 0.4*A here.
    """
    m, n = t_arr.shape
    area = m * n
    tvar = _template_energy(t_arr, k)
    if tvar <= 0.4 * area:
        raise DegenerateTemplateError("template has zero intensity variance")
    rows = s_arr.shape[0] - m + 1
    s1 = _window_sums(s_arr, m, n)
    s64 = s_arr.astype(np.int64)
    wvar = _window_sums(s64 * s64, m, n)
    wvar *= area
    wvar -= s1 * s1
    peak = 255 * 4**k
    wt = _window_dots(s_arr[:rows], t_arr[0], peak)
    for a in range(1, m):
        wt += _window_dots(s_arr[a : a + rows], t_arr[a], peak)
    wt *= area
    wt -= s1 * int(t_arr.sum(dtype=np.int64))
    valid = wvar > 0.4 * area
    scores = np.full(wt.shape, np.nan)
    scores[valid] = wt[valid] / np.sqrt(wvar[valid] * float(tvar))
    return scores, valid


def match_full_ncc(s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Conventional full-search normalized cross correlation (maximized)."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    if int(t.pixels.min()) == int(t.pixels.max()):
        raise DegenerateTemplateError("template has zero intensity variance")
    scores, valid = _ncc_map(s.pixels.astype(np.float64), t.pixels.astype(np.float64))
    row, col = _argmax_valid(scores, valid)
    elapsed = time.perf_counter_ns() - start
    return (
        MatchResult(row, col, float(scores[row, col]), "ncc", elapsed),
        ScoreMap(scores, valid),
    )


@dataclass(frozen=True)
class ImagePyramid:
    """Sequence of 2x mean-downsampled real-valued levels; level 0 is the original."""

    levels: list[np.ndarray]


def _halve(arr: np.ndarray) -> np.ndarray:
    h2, w2 = arr.shape[0] // 2, arr.shape[1] // 2
    if h2 < 1 or w2 < 1:
        raise PyramidDepthError(
            f"cannot halve {arr.shape[0]}x{arr.shape[1]} further"
        )
    a = arr[: 2 * h2, : 2 * w2]
    return (a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2]) / 4.0


def _pyramid_levels(arr: np.ndarray, count: int) -> list[np.ndarray]:
    levels = [arr]
    for _ in range(count - 1):
        levels.append(_halve(levels[-1]))
    return levels


def build_pyramid(img: GrayImage, levels: int) -> ImagePyramid:
    """Mean pyramid: each level-k pixel is the exact mean of its four parents."""
    if levels < 1:
        raise PyramidDepthError("level count must be at least 1")
    return ImagePyramid(_pyramid_levels(img.pixels.astype(np.float64), levels))


def auto_pyramid_levels(t: GrayImage) -> int:
    """Level count keeping the coarsest template side at least 8 pixels."""
    side = min(t.height, t.width)
    if side < 16:
        return 1
    return max(1, int(math.floor(math.log2(side / 8))) + 1)


def _local_sad(s_arr: np.ndarray, t_arr: np.ndarray, i: int, j: int) -> float:
    m, n = t_arr.shape
    return float(np.abs(s_arr[i : i + m, j : j + n] - t_arr).sum())


def _local_ncc(
    s_arr: np.ndarray, tc: np.ndarray, tnorm2: float, threshold: float, i: int, j: int
) -> float | None:
    m, n = tc.shape
    w = s_arr[i : i + m, j : j + n]
    wc = w - w.mean()
    wnorm2 = float(np.einsum("xy,xy->", wc, wc))
    if wnorm2 <= threshold:
        return None
    return float(np.einsum("xy,xy->", wc, tc)) / math.sqrt(wnorm2 * tnorm2)


def _scaled(level: np.ndarray, k: int) -> np.ndarray:
    """Pyramid level k times 4**k: each pixel is a mean of 4**k integers, so
    this is their exact integer sum."""
    dtype = np.int32 if 255 * 4**k <= np.iinfo(np.int32).max else np.int64
    scaled = level * 4**k
    return np.rint(scaled, out=scaled).astype(dtype)


def _coarse_search(
    s_level: np.ndarray, t_level: np.ndarray, base: str, k: int
) -> tuple[int, int, float]:
    """Full search at pyramid level k: best (row, col, score). The integer
    levels of _scaled multiply every SAD by 4**k, so its best offset is that
    of the float levels, ties included; they leave NCC unchanged up to
    rounding."""
    if base == "sad":
        coarse = _sad_map(_scaled(s_level, k), _scaled(t_level, k))
        br, bc = _argmin_first(coarse)
        return br, bc, float(coarse[br, bc]) / 4**k
    if k == 0:
        coarse, valid = _ncc_map(s_level, t_level)
    else:
        coarse, valid = _ncc_moment_map(_scaled(s_level, k), _scaled(t_level, k), k)
    br, bc = _argmax_valid(coarse, valid)
    return br, bc, float(coarse[br, bc])


def match_pyramid(
    s: GrayImage,
    t: GrayImage,
    base: str = "sad",
    levels: int | None = None,
    radius: int = 2,
) -> MatchResult:
    """Coarse-to-fine search: full search at the coarsest level, then refine
    within a Chebyshev neighborhood of the doubled best position per level.

    With automatic depth (levels=None), NCC starts from the deepest level at
    which the template still varies; an explicit depth whose coarsest
    template is flat raises DegenerateTemplateError."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    if base not in ("sad", "ncc"):
        raise ValueError(f"unknown base metric {base!r}; expected 'sad' or 'ncc'")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if base == "ncc" and int(t.pixels.min()) == int(t.pixels.max()):
        raise DegenerateTemplateError("template has zero intensity variance")
    depth = auto_pyramid_levels(t) if levels is None else levels
    if depth < 1:
        raise PyramidDepthError("level count must be at least 1")
    s_levels = _pyramid_levels(s.pixels.astype(np.float64), depth)
    t_levels = _pyramid_levels(t.pixels.astype(np.float64), depth)

    k = depth - 1
    if base == "ncc" and levels is None:
        # 2x2 means can flatten a template, as they turn a checkerboard into
        # one gray; search from the deepest level where it still varies.
        while k > 0 and (
            _template_energy(_scaled(t_levels[k], k), k) <= 0.4 * t_levels[k].size
        ):
            k -= 1
    br, bc, best = _coarse_search(s_levels[k], t_levels[k], base, k)

    for k in range(k - 1, -1, -1):
        sk, tk = s_levels[k], t_levels[k]
        max_r = sk.shape[0] - tk.shape[0]
        max_c = sk.shape[1] - tk.shape[1]
        cr, cc = 2 * br, 2 * bc
        r0, r1 = max(0, cr - radius), min(max_r, cr + radius)
        c0, c1 = max(0, cc - radius), min(max_c, cc + radius)
        if base == "sad":
            best = math.inf
            for i in range(r0, r1 + 1):
                for j in range(c0, c1 + 1):
                    v = _local_sad(sk, tk, i, j)
                    if v < best:
                        best, br, bc = v, i, j
        else:
            tc = tk - tk.mean()
            tnorm2 = float(np.einsum("xy,xy->", tc, tc))
            threshold = 0.4 * (4.0 ** -k) ** 2
            found = False
            for i in range(r0, r1 + 1):
                for j in range(c0, c1 + 1):
                    v = _local_ncc(sk, tc, tnorm2, threshold, i, j)
                    if v is not None and (not found or v > best):
                        best, br, bc = v, i, j
                        found = True
            if not found:
                raise NoCandidateError("all refinement candidates are degenerate")

    elapsed = time.perf_counter_ns() - start
    name = "sadp" if base == "sad" else "nccp"
    return MatchResult(br, bc, best, name, elapsed)


def match_dense(name: str, s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Result and score map of a dense (full-search) algorithm, from one pass."""
    if name in _VEC_METRIC:
        return match_projected(s, t, _VEC_METRIC[name])
    if name == "sad":
        return match_full_sad(s, t)
    if name == "ncc":
        return match_full_ncc(s, t)
    raise ValueError(f"no dense score map for algorithm {name!r}")


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
    """Dispatch one of the seven named algorithms."""
    if name == "sadp":
        return match_pyramid(s, t, base="sad", levels=levels, radius=radius)
    if name == "nccp":
        return match_pyramid(s, t, base="ncc", levels=levels, radius=radius)
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    return match_dense(name, s, t)[0]
