import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from vecmatch import (
    DegenerateTemplateError,
    GrayImage,
    PyramidDepthError,
    Rect,
    ScoreOverflowError,
    TemplateSizeError,
    VectorMetric,
    crop,
    match_full_ncc,
    match_full_sad,
    match_projected,
    match_pyramid,
    score_map_only,
)
from vecmatch import matchers, projection
from vecmatch.bench import peak_bytes
from vecmatch.matchers import _moment_bound, _ssd_bound
from vecmatch.oracle import (
    naive_ncc_arrays,
    naive_projected_map,
    naive_sad_arrays,
    naive_sad_map,
)
from conftest import random_gray, textured_gray

S3 = GrayImage([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
T2 = GrayImage([[5, 6], [8, 9]])


class TestMatchProjected:
    def test_cropped_template_found(self):
        result, _ = match_projected(S3, T2, VectorMetric.SSD)
        assert (result.row, result.col, result.score) == (1, 1, 0)

    def test_equal_images(self):
        result, smap = match_projected(S3, S3, VectorMetric.SSD)
        assert (result.row, result.col, result.score) == (0, 0, 0)
        assert smap.scores.shape == (1, 1)

    def test_score_map_values(self):
        # window vectors (5,7),(7,9),(11,13),(13,15) against NT=(13,15)
        _, smap = match_projected(S3, T2, VectorMetric.SSD)
        assert smap.scores.tolist() == [[128, 72], [8, 0]]

    def test_template_too_large(self):
        with pytest.raises(TemplateSizeError):
            match_projected(T2, S3, VectorMetric.SSD)

    def test_row_major_tie_break(self):
        s = GrayImage([[3, 3, 3], [3, 3, 3]])
        t = GrayImage([[3]])
        result, _ = match_projected(s, t, VectorMetric.SAD)
        assert (result.row, result.col) == (0, 0)


def force_int64(path, monkeypatch):
    """Force the wide side of the dtype rules that `path` names. SAD's
    differences are int16 only while the inputs are at most 2**15 - 1
    ("int32" forces them to their total's dtype); the column sum tables,
    their row totals and SAD totals are int32 only below 2**31
    ("int64-tables"); the SSD map and w.t are float64 only below 2**53
    ("int64-ssd"); "int64" forces all three, and any other path, such as
    "narrow", none."""
    if path in ("int64", "int32"):
        monkeypatch.setattr(projection, "_INT16_MAX", -1)
    if path in ("int64", "int64-tables"):
        monkeypatch.setattr(projection, "_INT32_MAX", 0)
    if path in ("int64", "int64-ssd"):
        monkeypatch.setattr(matchers, "_FLOAT_EXACT_MAX", 0)


def _edge_case(name, rng):
    """(reference, template) pairs at the indexing edges of the SSD prefix."""
    if name == "1x1":
        return random_gray(rng, 9, 11), random_gray(rng, 1, 1)
    if name == "n=1":
        return random_gray(rng, 9, 11), random_gray(rng, 5, 1)
    if name == "m=p":
        return random_gray(rng, 6, 13), random_gray(rng, 6, 4)
    if name == "n=q":
        return random_gray(rng, 13, 6), random_gray(rng, 4, 6)
    if name == "whole":
        s = random_gray(rng, 7, 9)
        return s, s
    if name == "blocks":
        # 131 column offsets: two full blocks of w.t products and a partial one
        return random_gray(rng, 6, 150), random_gray(rng, 3, 20)
    # all-255 reference, large dark template: the largest scores of the set
    return GrayImage(np.full((64, 64), 255, dtype=np.uint8)), GrayImage(
        rng.integers(0, 8, (60, 60), dtype=np.uint8)
    )


class TestProjectedSsdEdges:
    CASES = ("1x1", "n=1", "m=p", "n=q", "whole", "blocks", "all-255")
    # int16 differences into int32 and int64 totals, and all int32 or int64
    SAD_PATHS = ["narrow", "int64-tables", "int32", "int64"]

    @pytest.fixture(autouse=True, params=["float64", "int64", "int64-tables", "int64-ssd"])
    def int_path(self, request, monkeypatch):
        force_int64(request.param, monkeypatch)

    @pytest.mark.parametrize("case", CASES)
    def test_ssd_bit_exact(self, case, rng):
        s, t = _edge_case(case, rng)
        result, smap = match_projected(s, t, VectorMetric.SSD)
        expected = naive_projected_map(s, t, VectorMetric.SSD).scores
        assert smap.scores.shape == (s.height - t.height + 1, s.width - t.width + 1)
        assert smap.scores.dtype == np.int64
        assert np.array_equal(smap.scores, expected)
        assert result.score == expected.min()

    @pytest.mark.parametrize("case", CASES)
    def test_euclid_matches_oracle(self, case, rng):
        s, t = _edge_case(case, rng)
        _, smap = match_projected(s, t, VectorMetric.EUCLIDEAN)
        expected = naive_projected_map(s, t, VectorMetric.EUCLIDEAN).scores
        np.testing.assert_allclose(smap.scores, expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("int_path", SAD_PATHS, indirect=True)
    @pytest.mark.parametrize("algo", ["vec-sad", "sad"])
    @pytest.mark.parametrize("case", CASES)
    def test_sad_bit_exact(self, case, algo, rng):
        s, t = _edge_case(case, rng)
        self._check_sad(algo, s, t)

    @pytest.mark.parametrize("int_path", SAD_PATHS, indirect=True)
    @pytest.mark.parametrize("algo", ["vec-sad", "sad"])
    @pytest.mark.parametrize("tile", [1, 50])
    def test_sad_spans_row_tiles(self, tile, algo, rng, monkeypatch):
        # 20 offset rows of stride 16: one row per tile, or 50 // 16 = 3 rows
        # with a partial last tile
        monkeypatch.setattr(matchers, "_SAD_TILE", tile)
        self._check_sad(algo, random_gray(rng, 23, 16), random_gray(rng, 4, 3))

    @staticmethod
    def _check_sad(algo, s, t):
        if algo == "sad":
            result, smap = match_full_sad(s, t)
            expected = naive_sad_map(s, t).scores
        else:
            result, smap = match_projected(s, t, VectorMetric.SAD)
            expected = naive_projected_map(s, t, VectorMetric.SAD).scores
        assert smap.scores.dtype == np.int64
        assert np.array_equal(smap.scores, expected)
        assert result.score == expected.min()


def test_sad_accumulator_width_at_int32_boundary():
    # an m x n SAD map over values in 0..peak accumulates in
    # sum_dtype(peak * m * n)
    assert projection.sum_dtype(2**31 - 1) is np.int32
    assert projection.sum_dtype(2**31) is np.int64
    n_max = (2**31 - 1) // 255
    assert projection.sum_dtype(255 * n_max) is np.int32
    assert projection.sum_dtype(255 * (n_max + 1)) is np.int64
    # a whole 512 x 512 reference as template still accumulates in int32
    assert projection.sum_dtype(255 * 512 * 512) is np.int32


def test_sad_map_scores_at_and_past_int32():
    top = 2**31 - 1
    one = matchers._sad_map(np.array([[top, 0]]), np.array([[0]]))
    assert one.dtype == np.int64 and one.tolist() == [[top, 0]]
    # every cell fits int32, their sum over a 1 x 3 template does not
    s = np.array([[2**30, 2**30, 2**30, 0, 2**30]])
    wide = matchers._sad_map(s, np.zeros((1, 3), dtype=np.int64))
    assert wide.tolist() == [[3 * 2**30, 2 * 2**30, 2**31]]


def _at_peak(rng, peak, shape, dtype):
    """(s, t) of values in {0, peak}, three offset rows and five offset
    columns, whose window at (1, 2) is peak - t: its SAD is peak * m * n,
    the most the template's cells can sum to."""
    m, n = shape
    t = rng.choice([0, peak], shape).astype(dtype)
    s = rng.choice([0, peak], (m + 2, n + 4)).astype(dtype)
    s[1 : 1 + m, 2 : 2 + n] = peak - t
    return s, t


@pytest.mark.parametrize("tile", [1, 1 << 16])
@pytest.mark.parametrize("peak, shape, run", [
    pytest.param(0, (2, 3), 65535, id="zeros"),
    # uint16 partials flush every 257 cells of 255: exactly at the limit,
    # one cell past it, and twice
    pytest.param(255, (1, 257), 257, id="255x257"),
    pytest.param(255, (2, 129), 257, id="255x258"),
    pytest.param(255, (5, 103), 257, id="255x515"),
    # the last peak with int16 differences, and the first without
    pytest.param(32767, (3, 4), 2, id="32767"),
    pytest.param(32768, (3, 4), 0, id="32768"),
])
def test_sad_map_at_width_edges(peak, shape, run, tile, rng, monkeypatch):
    monkeypatch.setattr(matchers, "_SAD_TILE", tile)
    assert projection.narrow_run(peak) == run
    s, t = _at_peak(rng, peak, shape, np.uint8 if peak <= 255 else np.int32)
    expected = naive_sad_arrays(s, t).scores
    assert expected[1, 2] == peak * t.size
    got = matchers._sad_map(s, t)
    assert got.dtype == np.int64 and np.array_equal(got, expected)


def test_sad_map_reads_last_pixel(rng):
    # the last template cell at the last offset reads the reference's last
    # pixel, the flat reference's cell just before its n - 1 padding cells
    s = random_gray(rng, 6, 7).pixels.copy()
    t = random_gray(rng, 3, 4).pixels.copy()
    s[-1, -1], t[-1, -1] = 255, 0
    assert np.array_equal(matchers._sad_map(s, t), naive_sad_arrays(s, t).scores)


def _vec_search(metric, matcher):
    def search(s, t):
        result = getattr(matchers, matcher)(s, t)
        assert type(result.score) is int
        scores = naive_projected_map(s, t, metric).scores
        return (result.row, result.col, result.score), scores
    return search


def _coarse_sad_search(levels):
    def search(s, t):
        # as deep as asked, or as deep as the template's shorter side allows
        depth = min(levels, min(t.height, t.width).bit_length())
        s_k, t_k = (matchers._pyramid_levels(x.pixels, depth)[-1] for x in (s, t))
        scores = np.abs(sliding_window_view(s_k, t_k.shape) - t_k).sum(axis=(2, 3))
        return matchers._coarse_search(s_k, t_k, "sad", depth - 1), scores
    return search


# Each caller of matchers._first_min, as search(s, t) -> (its (row, col,
# score), the dense map whose first minimum it must find).
FIRST_MIN_SEARCHES = {
    "vec-sad": _vec_search(VectorMetric.SAD, "_match_vec_sad"),
    "vec-ssd": _vec_search(VectorMetric.SSD, "_match_vec_ssd"),
    **{f"sadp-levels-{d}": _coarse_sad_search(d) for d in (1, 2, 3)},
}


class TestSadFirstMin:
    """Every caller of _first_min, the successive-elimination search, finds
    the first minimum of its dense map and that minimum's score."""

    @pytest.fixture(autouse=True, params=["gather", "dense", "gather-int64", "dense-int64"])
    def branch(self, request, monkeypatch):
        # no share of survivors exceeds 1, and every share exceeds 0: the
        # two limits force the gather and the dense fallback
        gather = request.param.startswith("gather")
        monkeypatch.setattr(matchers, "_SURVIVOR_SHARE", 1 if gather else 0)
        force_int64(request.param.partition("-")[2], monkeypatch)

    @staticmethod
    def _check(s, t):
        """{caller: (row, col, score)} of every caller on (s, t)."""
        found = {}
        for name, search in FIRST_MIN_SEARCHES.items():
            found[name], scores = search(s, t)
            first = divmod(int(np.argmin(scores)), scores.shape[1])
            assert found[name] == (*first, scores.min()), name
        return found

    def test_random_sweep(self):
        # as tier-1's oracle sweep: references up to 64^2, templates up to
        # 16^2; every other template is an exact crop, where the bound prunes
        rng = np.random.default_rng(64)
        for k in range(60):
            p, q = (int(x) for x in rng.integers(4, 65, 2))
            m, n = int(rng.integers(1, min(16, p) + 1)), int(rng.integers(1, min(16, q) + 1))
            s = random_gray(rng, p, q)
            if k % 2:
                top, left = int(rng.integers(0, p - m + 1)), int(rng.integers(0, q - n + 1))
                t = crop(s, Rect(top, left, m, n))
            else:
                t = random_gray(rng, m, n)
            self._check(s, t)

    @pytest.mark.parametrize("case", ["1x1", "n=1", "m=p", "n=q", "whole"])
    def test_edge_shapes(self, case, rng):
        self._check(*_edge_case(case, rng))

    @pytest.mark.parametrize("tile", [1, 7])
    def test_gathers_in_chunks(self, tile, rng, monkeypatch):
        monkeypatch.setattr(matchers, "_SAD_TILE", tile)
        s = textured_gray(rng, 30, 40, blur=4)
        self._check(s, crop(s, Rect(11, 17, 6, 5)))
        self._check(s, random_gray(rng, 6, 5))

    def test_constant_reference_gives_origin(self, rng):
        s = GrayImage(np.full((9, 11), 7, dtype=np.uint8))
        for t in (GrayImage(np.full((3, 4), 7, dtype=np.uint8)), random_gray(rng, 3, 4)):
            for row, col, _ in self._check(s, t).values():
                assert (row, col) == (0, 0)

    def test_ties_past_seed_count(self, rng):
        # a constant reference: all 14 x 17 offsets tie at the
        # _SEED_COUNT-th least bound |W - T|
        s = GrayImage(np.full((16, 20), 7, dtype=np.uint8))
        t = random_gray(rng, 3, 4)
        bound = matchers._total_gaps(*matchers._column_sums(s, t), 255 * 3)
        assert bound.size > matchers._SEED_COUNT and (bound == bound[0, 0]).all()
        for row, col, _ in self._check(s, t).values():
            assert (row, col) == (0, 0)
        # rows 8-9 at 3 and a template of 3s: the 34 offsets of rows 7 and 8
        # lie below the 64th least bound, and the 34 of rows 6 and 9 tie at it
        arr = np.full((16, 20), 7, dtype=np.uint8)
        arr[8:10] = 3
        found = self._check(GrayImage(arr), GrayImage(np.full((3, 4), 3, dtype=np.uint8)))
        assert found["vec-sad"] == (7, 0, 16) and found["vec-ssd"] == (7, 0, 64)

    def test_periodic_reference_gives_first_match(self, rng):
        # period 3 x 4: the crop at (7, 9) matches exactly at every (1 + 3i, 1 + 4j)
        s = GrayImage(np.tile(random_gray(rng, 3, 4).pixels, (6, 7)))
        found = self._check(s, crop(s, Rect(7, 9, 4, 5)))
        for name in ("vec-sad", "vec-ssd", "sadp-levels-1"):
            assert found[name] == (1, 1, 0), name

    def test_ssd_keeps_offset_on_threshold(self, rng):
        # the crop at (2, 3) brightened by 1: its column sums all differ by
        # m = 3, so (W - T)**2 = n * vec-SSD, Cauchy-Schwarz with equality,
        # and 42 offsets make every offset a seed, so UB is that vec-SSD
        s = GrayImage(rng.integers(0, 255, (8, 10), dtype=np.uint8))
        t = GrayImage(crop(s, Rect(2, 3, 3, 4)).pixels + 1)
        gap = int(t.pixels.sum(dtype=np.int64)) - int(s.pixels[2:5, 3:7].sum(dtype=np.int64))
        row, col, score = self._check(s, t)["vec-ssd"]
        assert (row, col, score) == (2, 3, 4 * 3**2)
        assert gap**2 == t.width * score


@pytest.mark.parametrize("algo, side, per_pixel", [
    pytest.param(algo, side, per_pixel, id=f"{algo}-{per_pixel}")
    for algo, side, per_pixel in [("vec-ssd", 21, 16), ("vec-sad", 21, 16),
                                  ("vec-euclid", 21, 24), ("nccp", 200, 16),
                                  ("nccp", 12, 48)]
])
def test_projected_peak_memory(algo, side, per_pixel, rng):
    # bytes one request holds at once, per reference pixel, for a centered
    # crop of a 512 x 512 reference. At 21 x 21: ~11.8 for vec-ssd and
    # vec-sad (int32 tables and bounds), ~20 for vec-euclid (int32 column
    # sums, their float64 copy and the float64 map); int64 tables, which
    # these bounds reject, took 23.5 and 29.8. nccp at 200 x 200 reads ~11.1
    # (its int32 pyramid and the refinement's gathers of at most _SAD_TILE
    # cells); gathering all 25 level-0 windows at once took ~52. At 12 x 12
    # nccp searches level 0 with _ncc_moment_map, ~37 (its int64 maps, each
    # 8 bytes per pixel); keeping the int64 copy of the reference beside its
    # squares and dividing through masked copies took ~67.
    s = textured_gray(rng, 512, 512)
    t = crop(s, Rect((512 - side) // 2, (512 - side) // 2, side, side))
    assert peak_bytes(algo, s, t) <= per_pixel * s.height * s.width


class TestSsdRangeGuard:
    # largest n whose worst-case score (255*m)**2 * n still fits int64, at m = 1
    N_MAX = (2**63 - 1) // 255**2

    def test_largest_fitting_shape_passes(self):
        assert _ssd_bound(1, self.N_MAX) == 255**2 * self.N_MAX

    def test_one_column_more_raises(self):
        with pytest.raises(ScoreOverflowError):
            _ssd_bound(1, self.N_MAX + 1)

    def test_square_overflow(self):
        with pytest.raises(ValueError):
            _ssd_bound(60000, 60000)

    def test_checked_before_scoring(self, monkeypatch):
        # shrink the limit so a 2x2 template trips it: (255*2)**2 * 2 > 100
        monkeypatch.setattr(matchers, "_INT64_MAX", 100)
        for metric in (VectorMetric.SSD, VectorMetric.EUCLIDEAN):
            with pytest.raises(ScoreOverflowError):
                match_projected(S3, T2, metric)
        # SAD scores are bounded by 255*m*n and need no guard
        assert match_projected(S3, T2, VectorMetric.SAD)[0].score == 0


class TestMatchFullSad:
    def test_cropped_template_found(self):
        result, _ = match_full_sad(S3, T2)
        assert (result.row, result.col, result.score) == (1, 1, 0)

    def test_constant_offset(self):
        s = GrayImage(np.full((2, 2), 10, dtype=np.uint8))
        t = GrayImage(np.full((2, 2), 13, dtype=np.uint8))
        result, _ = match_full_sad(s, t)
        assert (result.row, result.col, result.score) == (0, 0, 12)

    def test_score_map_values(self):
        _, smap = match_full_sad(S3, T2)
        assert smap.scores.tolist() == [[16, 12], [4, 0]]


class TestMatchFullNcc:
    def test_self_correlation(self, rng):
        s = random_gray(rng, 24, 24)
        t = crop(s, Rect(5, 9, 8, 8))
        result, _ = match_full_ncc(s, t)
        assert (result.row, result.col) == (5, 9)
        assert result.score == pytest.approx(1.0, abs=1e-9)

    def test_negative_anticorrelation(self, rng):
        # perfect anticorrelation shows up in the map at the crop location;
        # the argmax goes elsewhere since NCC maximizes
        s = random_gray(rng, 24, 24)
        t = GrayImage(255 - crop(s, Rect(5, 9, 8, 8)).pixels)
        _, smap = match_full_ncc(s, t)
        assert smap.scores[5, 9] == pytest.approx(-1.0, abs=1e-9)
        assert smap.scores.min() == pytest.approx(-1.0, abs=1e-9)

    def test_constant_template_rejected(self):
        s = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        with pytest.raises(DegenerateTemplateError):
            match_full_ncc(s, GrayImage(np.full((2, 2), 7, dtype=np.uint8)))

    def test_degenerate_windows_excluded(self, rng):
        s_arr = np.zeros((6, 6), dtype=np.uint8)
        s_arr[3:, 3:] = rng.integers(1, 256, (3, 3), dtype=np.uint8)
        s = GrayImage(s_arr)
        t = crop(s, Rect(3, 3, 3, 3))
        if int(t.pixels.min()) == int(t.pixels.max()):
            pytest.skip("degenerate draw")
        result, smap = match_full_ncc(s, t)
        assert not smap.valid[0, 0]  # constant-zero window
        assert np.isnan(smap.scores[0, 0])
        assert (result.row, result.col) == (3, 3)

    def test_scores_within_bounds(self, rng):
        s = random_gray(rng, 20, 20)
        t = random_gray(rng, 6, 6)
        smap = score_map_only(s, t, "ncc")
        vals = smap.scores[smap.valid]
        assert (vals >= -1 - 1e-9).all() and (vals <= 1 + 1e-9).all()


def _pyramid(img, levels):
    return matchers._pyramid_levels(img.pixels, levels)


def _assert_exact_ncc(score, s, t, row, col, ulps=4):
    """score is within `ulps` units in the last place of the NCC of t with
    the window of s at (row, col), computed from Python-integer moments to
    50 digits."""
    w = s.pixels[row : row + t.height, col : col + t.width].astype(int).ravel().tolist()
    v = t.pixels.astype(int).ravel().tolist()
    area, s1, st = len(v), sum(w), sum(v)
    num = area * sum(x * y for x, y in zip(w, v)) - s1 * st
    den = (area * sum(x * x for x in w) - s1 * s1) * (area * sum(y * y for y in v) - st * st)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = decimal.Decimal(num) / decimal.Decimal(den).sqrt()
        ulp = decimal.Decimal(math.ulp(float(exact)))
        assert abs(decimal.Decimal(score) - exact) <= ulps * ulp


def _mean_levels(img, count):
    """The float64 mean pyramid: level k holds the mean of the 4**k pixels
    under each cell, built by halving."""
    levels = [img.pixels.astype(np.float64)]
    for _ in range(count - 1):
        h2, w2 = levels[-1].shape[0] // 2, levels[-1].shape[1] // 2
        a = levels[-1][: 2 * h2, : 2 * w2]
        levels.append((a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2]) / 4.0)
    return levels


class TestBuildPyramid:
    def test_sum_of_2x2(self):
        levels = _pyramid(GrayImage([[1, 2], [3, 4]]), 2)
        assert levels[1].tolist() == [[10]]
        assert levels[0].dtype == levels[1].dtype == np.int32

    def test_sum_of_equals(self):
        levels = _pyramid(GrayImage(np.full((4, 4), 8, dtype=np.uint8)), 3)
        assert levels[1].tolist() == [[32, 32], [32, 32]]
        assert levels[2].tolist() == [[128]]

    def test_floor_discards_trailing(self):
        levels = _pyramid(S3, 2)
        assert levels[1].tolist() == [[1 + 2 + 4 + 5]]

    def test_exact_parent_sums(self, rng):
        levels = _pyramid(random_gray(rng, 17, 19), 3)
        for k in range(1, 3):
            prev, cur = levels[k - 1], levels[k]
            assert cur.shape == (prev.shape[0] // 2, prev.shape[1] // 2)
            for x, y in np.ndindex(cur.shape):
                assert cur[x, y] == prev[2 * x : 2 * x + 2, 2 * y : 2 * y + 2].sum()

    def test_sums_are_scaled_means(self, rng):
        img = textured_gray(rng, 96, 80)
        for k, (sums, means) in enumerate(zip(_pyramid(img, 4), _mean_levels(img, 4))):
            assert np.array_equal(sums, means * 4**k)

    def test_int64_past_int32(self, monkeypatch):
        # a level-k cell reaches 255 * 4**k: at this limit level 1 still
        # fits int32 and level 2 does not
        monkeypatch.setattr(projection, "_INT32_MAX", 255 * 4)
        levels = _pyramid(GrayImage(np.full((8, 8), 255, dtype=np.uint8)), 4)
        assert [x.dtype for x in levels] == [np.int32, np.int32, np.int64, np.int64]
        assert [int(x[0, 0]) for x in levels] == [255, 255 * 4, 255 * 16, 255 * 64]

    def test_too_many_levels(self):
        with pytest.raises(PyramidDepthError, match="cannot halve 1x1 further"):
            _pyramid(GrayImage([[1, 2], [3, 4]]), 3)


class TestMatchPyramid:
    def test_matches_full_search(self, rng):
        s = random_gray(rng, 64, 64)
        t = crop(s, Rect(24, 24, 16, 16))
        full, _ = match_full_sad(s, t)
        pyr = match_pyramid(s, t, base="sad", radius=2)
        assert (pyr.row, pyr.col, pyr.score) == (full.row, full.col, full.score) == (24, 24, 0)

    def test_single_level_equals_base(self, rng):
        s = random_gray(rng, 32, 32)
        t = random_gray(rng, 7, 9)
        full, _ = match_full_sad(s, t)
        pyr = match_pyramid(s, t, base="sad", levels=1)
        assert (pyr.row, pyr.col, pyr.score) == (full.row, full.col, full.score)
        full_ncc, _ = match_full_ncc(s, t)
        pyr_ncc = match_pyramid(s, t, base="ncc", levels=1)
        assert (pyr_ncc.row, pyr_ncc.col) == (full_ncc.row, full_ncc.col)
        _assert_exact_ncc(pyr_ncc.score, s, t, pyr_ncc.row, pyr_ncc.col)

    def test_corner_crop(self, rng):
        s = random_gray(rng, 64, 64)
        t = crop(s, Rect(0, 0, 16, 16))
        pyr = match_pyramid(s, t, base="sad", radius=2)
        assert (pyr.row, pyr.col, pyr.score) == (0, 0, 0)

    def test_ncc_pyramid_crop(self, rng):
        # odd offsets misalign coarse levels; needs spatially correlated texture
        s = textured_gray(rng, 64, 64)
        t = crop(s, Rect(11, 37, 16, 16))
        pyr = match_pyramid(s, t, base="ncc", radius=2)
        assert (pyr.row, pyr.col) == (11, 37)
        assert pyr.score == pytest.approx(1.0, abs=1e-9)

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            match_pyramid(S3, T2, base="ssd")

    @pytest.mark.parametrize("base", ["sad", "ncc"])
    def test_refines_past_last_offset(self, base, rng):
        # the 17 x 17 crop at the last offset (23, 23) of a 40 x 40 reference:
        # level 1 finds column 12, whose double passes the last column 23;
        # with radius 0 the one candidate of that level is that last column
        s = textured_gray(rng, 40, 40, blur=4)
        t = crop(s, Rect(23, 23, 17, 17))
        coarse = matchers._coarse_search(*(_pyramid(x, 2)[1] for x in (s, t)), base, 1)
        assert coarse[1] == 12
        pyr = match_pyramid(s, t, base=base, levels=2, radius=0)
        assert (pyr.row, pyr.col) == (2 * coarse[0], 23)
        if base == "sad":
            assert pyr.score == match_full_sad(s, t)[1].scores[pyr.row, pyr.col]
        else:
            _assert_exact_ncc(pyr.score, s, t, pyr.row, pyr.col)

    def test_ncc_score_exact_on_perturbed_crop(self):
        # instance 2 of the benchmark's perturbed deck of seed 4, replayed
        # from its generator: the reference, the perturbation kinds, then
        # three crops with noise of sigma 30, 10 and 10; a float refinement
        # put its score 21 units in the last place off
        rng = np.random.default_rng([4, 2])
        s = textured_gray(rng, 192, 192)
        rng.permutation(np.resize(["noise10", "noise30", "bright40"], 21))
        for (m, n), sigma in zip([(16, 16), (17, 32), (18, 22)], [30, 10, 10]):
            top, left = (int(rng.integers(0, 192 - x + 1)) for x in (m, n))
            noisy = crop(s, Rect(top, left, m, n)).pixels + rng.normal(0, sigma, (m, n))
            t = GrayImage(np.clip(np.floor(noisy + 0.5), 0, 255).astype(np.uint8))
        pyr = match_pyramid(s, t, base="ncc")
        assert (pyr.row, pyr.col) == (top, left) == (16, 50)
        _assert_exact_ncc(pyr.score, s, t, pyr.row, pyr.col)

    # levels=3 halves the 2x2 template to 1x1 and then below one pixel.
    @pytest.mark.parametrize("levels", [0, 3])
    @pytest.mark.parametrize("base", ["sad", "ncc"])
    def test_depth_error(self, base, levels):
        with pytest.raises(PyramidDepthError):
            match_pyramid(S3, T2, base=base, levels=levels)


def _mean_coarse_search(s_level, t_level, base, k):
    """The coarse search on the mean levels themselves."""
    if base == "sad":
        coarse = np.abs(sliding_window_view(s_level, t_level.shape) - t_level).sum(axis=(2, 3))
        br, bc = matchers._argmin_first(coarse)
        return br, bc, float(coarse[br, bc])
    # Scaling by 4**k is exact and leaves NCC unchanged; it makes the
    # levels integers, on which the oracle's windows are flat exactly when
    # they are constant.
    coarse = naive_ncc_arrays(s_level * 4.0**k, t_level * 4.0**k).scores
    br, bc = matchers._argmax_valid(coarse)
    return br, bc, float(coarse[br, bc])


def _mean_pyramid_search(s, t, base, depth, radius=2):
    """(row, col, score) of match_pyramid at an explicit depth, searched on
    the float64 mean pyramid: the coarse search above, then one candidate at
    a time per level, NCC's validity threshold at 0.4 squared intensity
    steps of the level, 0.4 * (4**-k)**2."""
    s_levels, t_levels = _mean_levels(s, depth), _mean_levels(t, depth)
    k = depth - 1
    br, bc, best = _mean_coarse_search(s_levels[k], t_levels[k], base, k)
    for k in range(k - 1, -1, -1):
        sk, tk = s_levels[k], t_levels[k]
        m, n = tk.shape
        rows = range(max(0, 2 * br - radius), min(sk.shape[0] - m, 2 * br + radius) + 1)
        cols = range(max(0, 2 * bc - radius), min(sk.shape[1] - n, 2 * bc + radius) + 1)
        tc = tk - tk.mean()
        tnorm2 = float(np.einsum("xy,xy->", tc, tc))
        best = None
        for i in rows:
            for j in cols:
                w = sk[i : i + m, j : j + n]
                if base == "sad":
                    v = float(np.abs(w - tk).sum())
                    if best is None or v < best:
                        best, br, bc = v, i, j
                    continue
                wc = w - w.mean()
                wnorm2 = float(np.einsum("xy,xy->", wc, wc))
                if wnorm2 > 0.4 * (4.0**-k) ** 2:
                    v = float(np.einsum("xy,xy->", wc, tc)) / math.sqrt(wnorm2 * tnorm2)
                    if best is None or v > best:
                        best, br, bc = v, i, j
    return br, bc, best


def _with_flat_patch(img):
    arr = img.pixels.copy()
    arr[8:72, 8:56] = 77  # 8x6 pixels at level 3: room for flat windows
    return GrayImage(arr)


class TestIntegerCoarseSearch:
    @pytest.fixture(params=["float64", "int64"])
    def dot_path(self, request, monkeypatch):
        if request.param == "int64":
            monkeypatch.setattr(matchers, "_FLOAT_EXACT_MAX", 0)

    @pytest.mark.parametrize("make", [textured_gray, random_gray])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_moment_map_matches_ncc_map(self, make, k, rng, dot_path):
        s = _with_flat_patch(make(rng, 96, 80))
        t = crop(s, Rect(50, 36, 40, 32))
        s_k, t_k = _pyramid(s, k + 1)[k], _pyramid(t, k + 1)[k]
        scores = matchers._ncc_moment_map(s_k, t_k, k)
        expected = naive_ncc_arrays(s_k, t_k)
        valid = ~np.isnan(scores)
        assert scores.shape == (s_k.shape[0] - t_k.shape[0] + 1,
                                s_k.shape[1] - t_k.shape[1] + 1)
        assert np.array_equal(valid, expected.valid)
        assert valid.any() and not valid.all()
        np.testing.assert_allclose(scores[valid], expected.scores[valid], rtol=1e-9, atol=0)

    def test_flat_template_rejected(self):
        t = np.tile(np.array([[0, 255], [255, 0]]), (4, 4))  # 2x2 sums: all 510
        t_1 = _pyramid(GrayImage(t), 2)[1]
        with pytest.raises(DegenerateTemplateError):
            matchers._ncc_moment_map(t_1, t_1, 1)

    # Each SAD case on the narrow (unforced), all-int32 and all-int64 sides;
    # with _INT32_MAX at 0, every level from 1 on is int64.
    @pytest.mark.parametrize("k, path", [
        pytest.param(k, path, id=f"{path}-{k}" if path else str(k))
        for path in ("", "int32", "int64") for k in (1, 2, 3)
    ])
    def test_integer_sad_map_is_scaled_float_map(self, k, path, rng, monkeypatch):
        force_int64(path, monkeypatch)
        s, t = textured_gray(rng, 96, 80), random_gray(rng, 40, 24)
        s_k, t_k = _pyramid(s, k + 1)[k], _pyramid(t, k + 1)[k]
        s_mean, t_mean = _mean_levels(s, k + 1)[k], _mean_levels(t, k + 1)[k]
        assert s_k.dtype == t_k.dtype == (np.int64 if path == "int64" else np.int32)
        float_map = np.abs(sliding_window_view(s_mean, t_mean.shape) - t_mean).sum(axis=(2, 3))
        assert np.array_equal(matchers._sad_map(s_k, t_k), float_map * 4**k)

    @pytest.mark.parametrize("seed, path", [
        pytest.param(seed, path, id=f"{path}-{seed}" if path else str(seed))
        for path in ("", "int32", "int64") for seed in range(4)
    ])
    def test_pyramid_equals_float_coarse_search(self, seed, path, monkeypatch):
        force_int64(path, monkeypatch)
        rng = np.random.default_rng(seed)
        s = textured_gray(rng, 112, 104)
        cases = []
        for depth in (2, 3, 4):
            for _ in range(3):
                m = int(rng.integers(2 ** depth, 49))
                n = int(rng.integers(2 ** depth, 49))
                top = int(rng.integers(0, s.height - m + 1))
                left = int(rng.integers(0, s.width - n + 1))
                noisy = crop(s, Rect(top, left, m, n)).pixels + rng.normal(0, 20, (m, n))
                t = GrayImage(np.clip(np.rint(noisy), 0, 255))
                cases += [(s, t, depth, "sad"), (s, t, depth, "ncc")]
            t = random_gray(rng, m, n)
            cases += [(s, t, depth, "sad"), (s, t, depth, "ncc")]
        # a reference of period 2 x 3: several exact SAD matches in each
        # refinement neighborhood, so only the first of them is right (NCC's
        # coarse ties there fall to rounding, which differs between
        # _ncc_moment_map and the oracle)
        periodic = GrayImage(np.tile(random_gray(rng, 2, 3).pixels, (48, 30)))
        t = crop(periodic, Rect(31 + seed, 44 - seed, 20, 23))
        cases += [(periodic, t, 2, "sad"), (periodic, t, 3, "sad")]
        for s, t, depth, base in cases:
            r = match_pyramid(s, t, base, levels=depth)
            assert type(r.score) is (int if base == "sad" else float)
            row, col, score = _mean_pyramid_search(s, t, base, depth)
            assert (r.row, r.col) == (row, col)
            if base == "sad":
                assert r.score == score
            else:
                _assert_exact_ncc(r.score, s, t, row, col)

    def _coarse_levels(self, monkeypatch):
        seen = []

        def spy(s_level, t_level, base, k):
            seen.append(k)
            return coarse_search(s_level, t_level, base, k)

        coarse_search = matchers._coarse_search
        monkeypatch.setattr(matchers, "_coarse_search", spy)
        return seen

    @pytest.mark.parametrize("period, level", [(1, 0), (2, 1)])
    def test_flat_coarse_template_falls_back(self, period, level, rng, monkeypatch):
        # a checkerboard of period-sized squares is flat from level
        # log2(period) + 1 on, so automatic depth searches at `level`
        arr = rng.integers(0, 256, (128, 128), dtype=np.uint8)
        cells = np.indices((64, 64)) // period
        arr[30:94, 40:104] = np.where(cells.sum(axis=0) % 2, 255, 0)
        s = GrayImage(arr)
        t = crop(s, Rect(30, 40, 64, 64))
        seen = self._coarse_levels(monkeypatch)
        result = match_pyramid(s, t, base="ncc")
        assert seen == [level]
        assert (result.row, result.col) == (30, 40)
        assert result.score == pytest.approx(1.0, abs=1e-9)
        full, _ = match_full_ncc(s, t)
        assert (full.row, full.col) == (30, 40)
        with pytest.raises(DegenerateTemplateError):
            match_pyramid(s, t, base="ncc", levels=level + 2)


class TestMomentRangeGuard:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_exact_boundary(self, k):
        # largest area whose (255 * 4**k * area)**2 still fits int64
        area = math.isqrt(2**63 - 1) // (255 * 4**k)
        assert _moment_bound(k, area) == (255 * 4**k * area) ** 2
        with pytest.raises(ScoreOverflowError):
            _moment_bound(k, area + 1)

    def test_checked_before_scoring(self, rng, monkeypatch):
        s = textured_gray(rng, 64, 64)
        t = crop(s, Rect(8, 8, 32, 32))
        # a level-k pixel sums 4**k pixels: the bound is (255 * 32 * 32)**2
        # at every level of this template
        worst = (255 * 32 * 32) ** 2
        monkeypatch.setattr(matchers, "_INT64_MAX", worst)
        for levels in (None, 2):
            assert match_pyramid(s, t, base="ncc", levels=levels).score == pytest.approx(1.0)
        assert match_full_ncc(s, t)[0].score == pytest.approx(1.0)
        monkeypatch.setattr(matchers, "_INT64_MAX", worst - 1)

        def unreachable(*args):
            raise AssertionError("scoring started before the range check")

        monkeypatch.setattr(matchers, "_ncc_ratio", unreachable)
        for levels in (None, 1, 2):
            with pytest.raises(ScoreOverflowError):
                match_pyramid(s, t, base="ncc", levels=levels)
        with pytest.raises(ScoreOverflowError):
            match_full_ncc(s, t)
        # SAD needs no guard
        assert match_pyramid(s, t, base="sad", levels=2).score == 0


class TestScoreMapOnly:
    def test_projected_map(self):
        smap = score_map_only(S3, T2, "vec-ssd")
        assert smap.scores.tolist() == [[128, 72], [8, 0]]

    def test_single_pixel_template_sad(self):
        s = GrayImage([[5, 6], [7, 8]])
        smap = score_map_only(s, GrayImage([[5]]), "sad")
        assert smap.scores.tolist() == [[0, 1], [2, 3]]

    def test_no_map_for_pyramid(self):
        with pytest.raises(ValueError):
            score_map_only(S3, T2, "sadp")


def test_determinism(rng):
    s = random_gray(rng, 48, 48)
    t = crop(s, Rect(10, 20, 12, 12))
    for run in (match_full_ncc, match_full_sad):
        a, amap = run(s, t)
        b, bmap = run(s, t)
        assert (a.row, a.col, a.score) == (b.row, b.col, b.score)
        assert np.array_equal(amap.scores, bmap.scores, equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(
    hnp.arrays(np.uint8, st.tuples(st.integers(2, 20), st.integers(2, 20)),
               elements=st.integers(0, 255)),
    st.data(),
)
def test_cropped_templates_always_found_exactly(arr, data):
    s = GrayImage(arr)
    h = data.draw(st.integers(1, s.height))
    w = data.draw(st.integers(1, s.width))
    top = data.draw(st.integers(0, s.height - h))
    left = data.draw(st.integers(0, s.width - w))
    t = crop(s, Rect(top, left, h, w))
    for metric in VectorMetric:
        result, smap = match_projected(s, t, metric)
        assert smap.scores[top, left] == 0
        assert result.score == 0
    result, smap = match_full_sad(s, t)
    assert smap.scores[top, left] == 0
    assert result.score == 0
