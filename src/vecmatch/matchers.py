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
    """The largest possible SSD score for the template shape exceeds int64."""


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


def _ssd_bound(m: int, n: int) -> int:
    """Largest SSD, and largest window dot product w.t, that an m x n template
    can produce: (255*m)**2 * n. Raises ScoreOverflowError past int64."""
    worst = (255 * m) ** 2 * n
    if worst > _INT64_MAX:
        raise ScoreOverflowError(
            f"template {m}x{n} can score up to {worst}, beyond int64 ({_INT64_MAX})"
        )
    return worst


def _window_dots(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """int64 map of v . c[i, j : j + len(v)] for every row i and offset j.

    Each block of _DOT_BLOCK offsets is one float64 matrix product against a
    banded Toeplitz copy of v, band[r, j] = v[r - j]. c and v hold
    non-negative integers, so every partial sum is an integer no larger than
    the full dot product: the result is exact while that stays within
    _FLOAT_EXACT_MAX.
    """
    n = v.shape[0]
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
        worst = _ssd_bound(m, n)
    nt = project_template(t)
    table = build_column_sum_table(s, m)
    # (p-m+1, q) windowed column sums for every row offset at once.
    col2d = table.prefix[m:] - table.prefix[:-m]
    win = sliding_window_view(col2d, n, axis=1)
    if metric is VectorMetric.SAD:
        # |w - t| has no such expansion; one row of offsets per numpy call
        # measured faster than blocks of rows.
        rows_n, cols_n = win.shape[0], win.shape[1]
        scores = np.empty((rows_n, cols_n), dtype=np.int64)
        buf = np.empty((cols_n, n), dtype=np.int64)
        for i in range(rows_n):
            np.subtract(win[i], nt, out=buf)
            np.abs(buf, out=buf)
            scores[i] = buf.sum(axis=1)
    else:
        # |w - t|^2 = sum(w^2) - 2 w.t + sum(t^2) at every offset. w.t goes
        # through float64 matrix products where those are exact, else one
        # int64 einsum over the sliding view. sum(w^2) is a horizontal prefix
        # of the squared column sums, built in col2d's own buffer once w.t is
        # done. int64 arithmetic wraps mod 2**64, so the prefix and the middle
        # terms may wrap, yet every score is exact: _ssd_bound keeps the true
        # value in range.
        if worst <= _FLOAT_EXACT_MAX:
            scores = _window_dots(col2d, nt)
        else:
            scores = np.einsum("ijk,k->ij", win, nt)
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


def _sad_map(s_arr: np.ndarray, t_arr: np.ndarray) -> np.ndarray:
    """Full-search SAD map; row-at-a-time to bound temporary size."""
    m, n = t_arr.shape
    rows = s_arr.shape[0] - m + 1
    cols = s_arr.shape[1] - n + 1
    acc_dtype = np.int64 if np.issubdtype(s_arr.dtype, np.integer) else np.float64
    out = np.empty((rows, cols), dtype=acc_dtype)
    sw = sliding_window_view(s_arr, (m, n))
    buf = np.empty((cols, m, n), dtype=s_arr.dtype)
    for i in range(rows):
        np.subtract(sw[i], t_arr, out=buf)
        np.abs(buf, out=buf)
        out[i] = buf.sum(axis=(1, 2), dtype=acc_dtype)
    return out


def match_full_sad(s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Conventional full-search sum of absolute differences."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    scores = _sad_map(s.pixels.astype(np.int16), t.pixels.astype(np.int16))
    row, col = _argmin_first(scores)
    elapsed = time.perf_counter_ns() - start
    return MatchResult(row, col, int(scores[row, col]), "sad", elapsed), ScoreMap(scores)


def _ncc_map(
    s_arr: np.ndarray, t_arr: np.ndarray, quantum: float
) -> tuple[np.ndarray, np.ndarray]:
    """Full-search correlation map with per-window mean/variance recomputed.

    `quantum` is the smallest representable intensity step (1 for 8-bit input,
    4**-k at pyramid level k); a window is degenerate when its centered energy
    falls below what a single one-quantum deviation would produce.
    """
    m, n = t_arr.shape
    rows = s_arr.shape[0] - m + 1
    cols = s_arr.shape[1] - n + 1
    area = m * n
    threshold = 0.4 * quantum * quantum
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


def match_full_ncc(s: GrayImage, t: GrayImage) -> tuple[MatchResult, ScoreMap]:
    """Conventional full-search normalized cross correlation (maximized)."""
    start = time.perf_counter_ns()
    _check_fits(s, t)
    if int(t.pixels.min()) == int(t.pixels.max()):
        raise DegenerateTemplateError("template has zero intensity variance")
    scores, valid = _ncc_map(
        s.pixels.astype(np.float64), t.pixels.astype(np.float64), quantum=1.0
    )
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


def match_pyramid(
    s: GrayImage,
    t: GrayImage,
    base: str = "sad",
    levels: int | None = None,
    radius: int = 2,
) -> MatchResult:
    """Coarse-to-fine search: full search at the coarsest level, then refine
    within a Chebyshev neighborhood of the doubled best position per level."""
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
    quantum = 4.0 ** -k
    if base == "sad":
        coarse = _sad_map(s_levels[k], t_levels[k])
        br, bc = _argmin_first(coarse)
        best = float(coarse[br, bc])
    else:
        coarse, valid = _ncc_map(s_levels[k], t_levels[k], quantum=quantum)
        br, bc = _argmax_valid(coarse, valid)
        best = float(coarse[br, bc])

    for k in range(depth - 2, -1, -1):
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


def score_map_only(s: GrayImage, t: GrayImage, algorithm: str) -> ScoreMap:
    """Score map for inspection, without the argmin/argmax decision."""
    if algorithm in _VEC_METRIC:
        return match_projected(s, t, _VEC_METRIC[algorithm])[1]
    if algorithm == "sad":
        return match_full_sad(s, t)[1]
    if algorithm == "ncc":
        return match_full_ncc(s, t)[1]
    raise ValueError(f"no dense score map for algorithm {algorithm!r}")


def run_algorithm(
    name: str,
    s: GrayImage,
    t: GrayImage,
    levels: int | None = None,
    radius: int = 2,
) -> MatchResult:
    """Dispatch one of the seven named algorithms."""
    if name in _VEC_METRIC:
        return match_projected(s, t, _VEC_METRIC[name])[0]
    if name == "sad":
        return match_full_sad(s, t)[0]
    if name == "ncc":
        return match_full_ncc(s, t)[0]
    if name == "sadp":
        return match_pyramid(s, t, base="sad", levels=levels, radius=radius)
    if name == "nccp":
        return match_pyramid(s, t, base="ncc", levels=levels, radius=radius)
    raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
