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
    build_pyramid,
    crop,
    match_full_ncc,
    match_full_sad,
    match_projected,
    match_pyramid,
    score_map_only,
)
from vecmatch import matchers
from vecmatch.matchers import _moment_bound, _ssd_bound
from vecmatch.oracle import naive_projected_map, naive_sad_map
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
        assert (smap.rows, smap.cols) == (1, 1)

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

    @pytest.fixture(autouse=True, params=["float64", "int64"])
    def int_path(self, request, monkeypatch):
        # w.t runs in float64 only below 2**53 and SAD accumulates in int32
        # only below 2**31; zero limits force the int64 path of both
        if request.param == "int64":
            monkeypatch.setattr(matchers, "_FLOAT_EXACT_MAX", 0)
            monkeypatch.setattr(matchers, "_INT32_MAX", 0)

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

    @pytest.mark.parametrize("int_path", ["int32", "int64"], indirect=True)
    @pytest.mark.parametrize("algo", ["vec-sad", "sad"])
    @pytest.mark.parametrize("case", CASES)
    def test_sad_bit_exact(self, case, algo, rng):
        s, t = _edge_case(case, rng)
        self._check_sad(algo, s, t)

    @pytest.mark.parametrize("int_path", ["int32", "int64"], indirect=True)
    @pytest.mark.parametrize("algo", ["vec-sad", "sad"])
    @pytest.mark.parametrize("tile", [1, 50])
    def test_sad_spans_row_tiles(self, tile, algo, rng, monkeypatch):
        # 15 column offsets: one row per tile, or 3 rows with a partial last tile
        monkeypatch.setattr(matchers, "_SAD_TILE", tile)
        self._check_sad(algo, random_gray(rng, 23, 17), random_gray(rng, 4, 3))

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
    assert matchers._sad_dtype(1, 1, 2**31 - 1) is np.int32
    assert matchers._sad_dtype(1, 1, 2**31) is np.int64
    n_max = (2**31 - 1) // 255
    assert matchers._sad_dtype(1, n_max, 255) is np.int32
    assert matchers._sad_dtype(1, n_max + 1, 255) is np.int64
    # a whole 512 x 512 reference as template still accumulates in int32
    assert matchers._sad_dtype(512, 512, 255) is np.int32


def test_sad_map_scores_at_and_past_int32():
    top = 2**31 - 1
    one = matchers._sad_map(np.array([[top, 0]]), np.array([[0]]))
    assert one.dtype == np.int64 and one.tolist() == [[top, 0]]
    # every cell fits int32, their sum over a 1 x 3 template does not
    s = np.array([[2**30, 2**30, 2**30, 0, 2**30]])
    wide = matchers._sad_map(s, np.zeros((1, 3), dtype=np.int64))
    assert wide.tolist() == [[3 * 2**30, 2 * 2**30, 2**31]]


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


class TestBuildPyramid:
    def test_mean_of_2x2(self):
        pyr = build_pyramid(GrayImage([[1, 2], [3, 4]]), levels=2)
        assert pyr.levels[1].tolist() == [[2.5]]

    def test_mean_of_equals(self):
        pyr = build_pyramid(GrayImage(np.full((4, 4), 8, dtype=np.uint8)), levels=2)
        assert pyr.levels[1].tolist() == [[8.0, 8.0], [8.0, 8.0]]

    def test_floor_discards_trailing(self):
        pyr = build_pyramid(S3, levels=2)
        assert pyr.levels[1].shape == (1, 1)
        assert pyr.levels[1][0, 0] == (1 + 2 + 4 + 5) / 4

    def test_exact_parent_means(self, rng):
        img = random_gray(rng, 16, 16)
        pyr = build_pyramid(img, levels=3)
        for k in range(1, 3):
            prev, cur = pyr.levels[k - 1], pyr.levels[k]
            for x in range(cur.shape[0]):
                for y in range(cur.shape[1]):
                    parents = prev[2 * x : 2 * x + 2, 2 * y : 2 * y + 2]
                    assert cur[x, y] == parents.sum() / 4.0

    def test_too_many_levels(self):
        with pytest.raises(PyramidDepthError):
            build_pyramid(GrayImage([[1, 2], [3, 4]]), levels=3)


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
        assert (pyr_ncc.row, pyr_ncc.col, pyr_ncc.score) == (
            full_ncc.row, full_ncc.col, full_ncc.score,
        )

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


def _scaled_level(img, k):
    """Level k of img's mean pyramid, and that level as _scaled integers."""
    level = matchers._pyramid_levels(img.pixels.astype(np.float64), k + 1)[k]
    return level, matchers._scaled(level, k)


def _float_coarse_search(s_level, t_level, base, k):
    """The coarse search on the float levels themselves."""
    if base == "sad":
        coarse = np.abs(sliding_window_view(s_level, t_level.shape) - t_level).sum(axis=(2, 3))
        br, bc = matchers._argmin_first(coarse)
        return br, bc, float(coarse[br, bc])
    # Scaling by 4**k is exact and leaves NCC unchanged; it puts _ncc_map's
    # validity threshold of 0.4 at one intensity step of level k.
    coarse, valid = matchers._ncc_map(s_level * 4.0**k, t_level * 4.0**k)
    br, bc = matchers._argmax_valid(coarse, valid)
    return br, bc, float(coarse[br, bc])


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
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_moment_map_matches_ncc_map(self, make, k, rng, dot_path):
        s = _with_flat_patch(make(rng, 96, 80))
        t = crop(s, Rect(50, 36, 40, 32))
        s_level, s_int = _scaled_level(s, k)
        _, t_int = _scaled_level(t, k)
        scores, valid = matchers._ncc_moment_map(s_int, t_int, k)
        expected, expected_valid = matchers._ncc_map(
            s_int.astype(np.float64), t_int.astype(np.float64)
        )
        assert scores.shape == (s_level.shape[0] - t_int.shape[0] + 1,
                                s_level.shape[1] - t_int.shape[1] + 1)
        assert np.array_equal(valid, expected_valid)
        assert valid.any() and not valid.all()
        assert np.isnan(scores[~valid]).all()
        np.testing.assert_allclose(scores[valid], expected[valid], rtol=1e-9, atol=0)

    def test_flat_template_rejected(self):
        t = np.tile(np.array([[0, 255], [255, 0]]), (4, 4))  # 2x2 means: all 127.5
        _, t_int = _scaled_level(GrayImage(t), 1)
        with pytest.raises(DegenerateTemplateError):
            matchers._ncc_moment_map(t_int, t_int, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_sad_map_is_scaled_float_map(self, k, rng):
        s_level, s_int = _scaled_level(textured_gray(rng, 96, 80), k)
        t_level, t_int = _scaled_level(random_gray(rng, 40, 24), k)
        assert s_int.dtype == t_int.dtype == np.int32
        float_map = np.abs(sliding_window_view(s_level, t_level.shape) - t_level).sum(axis=(2, 3))
        assert np.array_equal(matchers._sad_map(s_int, t_int), float_map * 4**k)

    @pytest.mark.parametrize("seed", range(4))
    def test_pyramid_equals_float_coarse_search(self, seed, monkeypatch):
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
                cases.append((t, depth))
            cases.append((random_gray(rng, m, n), depth))

        def run_all():
            return [
                (r.row, r.col, r.score)
                for t, depth in cases
                for r in (match_pyramid(s, t, base, levels=depth) for base in ("sad", "ncc"))
            ]

        got = run_all()
        monkeypatch.setattr(matchers, "_coarse_search", _float_coarse_search)
        assert got == run_all()

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
        monkeypatch.setattr(matchers, "_INT64_MAX", worst - 1)
        for levels in (None, 2):
            with pytest.raises(ScoreOverflowError):
                match_pyramid(s, t, base="ncc", levels=levels)
        # level 0 keeps the float NCC map, and SAD needs no guard
        assert match_pyramid(s, t, base="ncc", levels=1).score == pytest.approx(1.0)
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
