import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vecmatch import GrayImage, VectorMetric, project_template, projection
from vecmatch.projection import window_sums
from vecmatch.oracle import vec_distance


def test_project_column_sums():
    assert project_template(GrayImage([[1, 2], [3, 4]])).tolist() == [4, 6]


def test_project_single_row_identity():
    assert project_template(GrayImage([[5, 7, 9]])).tolist() == [5, 7, 9]


def test_project_zeros():
    assert project_template(GrayImage(np.zeros((3, 3), dtype=np.uint8))).tolist() == [0, 0, 0]


def _direct(arr, m, n):
    """Every m x n window of arr summed cell by cell."""
    rows, cols = arr.shape[0] - m + 1, arr.shape[1] - n + 1
    return np.array([[int(arr[i : i + m, j : j + n].astype(np.int64).sum())
                      for j in range(cols)] for i in range(rows)])


class TestColumnSumTable:
    # m x 1 windows: the column sums of every m-row window

    def test_cumulative_rows(self):
        arr = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        assert window_sums(arr, 1, 1, 255).tolist() == [[1, 2], [3, 4]]
        assert window_sums(arr, 2, 1, 255).tolist() == [[4, 6]]

    def test_single_pixel(self):
        assert window_sums(np.array([[9]], dtype=np.uint8), 1, 1, 255).tolist() == [[9]]

    @given(
        hnp.arrays(np.uint8, st.tuples(st.integers(1, 10), st.integers(1, 10)),
                   elements=st.integers(0, 255)),
    )
    def test_invariants(self, arr):
        c = window_sums(arr, arr.shape[0], 1, 255)
        assert c.shape == (1, arr.shape[1])
        assert np.array_equal(c[0], arr.sum(axis=0, dtype=np.int64))
        assert np.array_equal(window_sums(arr, 1, 1, 255), arr)


class TestWindowColumnSums:
    S = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.uint8)

    def test_top_left(self):
        assert window_sums(self.S, 2, 1, 255)[0, 0:2].tolist() == [5, 7]

    def test_inner(self):
        assert window_sums(self.S, 2, 1, 255)[1, 1:3].tolist() == [13, 15]
        assert window_sums(self.S, 2, 2, 255)[1, 1] == 28

    @given(
        hnp.arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                   elements=st.integers(0, 255)),
        st.data(),
    )
    def test_matches_direct_summation_everywhere(self, arr, data):
        m = data.draw(st.integers(1, arr.shape[0]))
        n = data.draw(st.integers(1, arr.shape[1]))
        sums = window_sums(arr, m, n, 255)
        assert sums.dtype == np.int32
        assert np.array_equal(sums, _direct(arr, m, n))


def _prefix_reference(arr, m, n):
    """Every m x n window sum of arr from int64 cumsum prefixes of both axes."""
    cum = np.zeros((arr.shape[0] + 1, arr.shape[1] + 1), dtype=np.int64)
    cum[1:, 1:] = arr.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    return cum[m:, n:] - cum[:-m, n:] - cum[m:, :-n] + cum[:-m, :-n]


class TestBlockedPrefix:
    # The vertical prefix runs in blocks of isqrt(p) rows plus a ragged tail.

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.uint8, st.tuples(st.integers(1, 80), st.integers(1, 6)),
                      elements=st.integers(0, 255)))
    def test_every_height_against_cumsum(self, arr):
        for m in range(1, arr.shape[0] + 1):
            assert np.array_equal(window_sums(arr, m, 1, 255), _prefix_reference(arr, m, 1))

    @pytest.mark.parametrize("path", ["int32", "int64-tables"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 15, 16, 17, 80])
    def test_pinned_heights(self, p, path, rng, monkeypatch):
        # exact squares, a square plus one, and ragged tails
        if path == "int64-tables":
            monkeypatch.setattr(projection, "_INT32_MAX", 0)
        arr = rng.integers(0, 256, (p, 5), dtype=np.uint8)
        for m in range(1, p + 1):
            for n in (1, 3, 5):
                sums = window_sums(arr, m, n, 255)
                assert sums.dtype == (np.int64 if path == "int64-tables" else np.int32)
                assert np.array_equal(sums, _prefix_reference(arr, m, n))

    def test_wrapped_carry_across_blocks(self, rng, monkeypatch):
        # 300 rows: blocks of 17 rows and an 11-row tail. Every int16 column
        # prefix passes 32767 inside the blocks and wraps as it is carried on.
        def narrow(largest):
            return np.int16 if largest <= np.iinfo(np.int16).max else np.int64

        monkeypatch.setattr(projection, "sum_dtype", narrow)
        arr = rng.integers(128, 256, (300, 3), dtype=np.uint8)
        assert arr.sum(axis=0, dtype=np.int64).min() > np.iinfo(np.int16).max
        for m in (1, 17, 18, 299, 300):
            sums = window_sums(arr, m, 1, 255)
            assert sums.dtype == (np.int16 if m <= 18 else np.int64)
            assert np.array_equal(sums, _prefix_reference(arr, m, 1))


class TestWindowSums:
    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (0, 0), (-1, 2), (6, 1), (1, 8), (6, 8)])
    def test_rejects_windows_outside_the_array(self, m, n):
        arr = np.ones((5, 7), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"{m}x{n} windows of a 5x7"):
            window_sums(arr, m, n, 255)

    def test_wrapped_prefix_gives_exact_windows(self, monkeypatch):
        # int16 while the bound fits: each prefix below passes 32767 and
        # wraps, yet every window sum fits int16 and comes out exact
        def narrow(largest):
            return np.int16 if largest <= np.iinfo(np.int16).max else np.int64

        monkeypatch.setattr(projection, "sum_dtype", narrow)
        # column prefixes reach 300 * 255 = 76500; 100-row windows are 25500
        one = window_sums(np.full((300, 2), 255, dtype=np.uint8), 100, 1, 255)
        assert one.dtype == np.int16 and one.shape == (201, 2) and (one == 25500).all()
        # 300 * 127 = 38100; 100 x 2 windows are 25400
        two = window_sums(np.full((300, 2), 127, dtype=np.uint8), 100, 2, 127)
        assert two.dtype == np.int16 and two.shape == (201, 1) and (two == 25400).all()
        # row prefixes reach 300 * 200 = 60000; 1 x 2 windows are 400
        row = window_sums(np.full((1, 300), 200, dtype=np.int16), 1, 2, 200)
        assert row.dtype == np.int16 and row.shape == (1, 299) and (row == 400).all()

    def test_one_by_one_is_the_array(self, rng):
        arr = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        sums = window_sums(arr, 1, 1, 255)
        assert sums.dtype == np.int32 and np.array_equal(sums, arr)
        assert not np.shares_memory(sums, arr)

    def test_full_size_window_is_one_cell(self, rng):
        arr = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        assert window_sums(arr, 5, 7, 255).tolist() == [[int(arr.sum())]]

    @pytest.mark.parametrize("path", ["int32", "int64-tables"])
    def test_both_widths(self, path, rng, monkeypatch):
        if path == "int64-tables":
            monkeypatch.setattr(projection, "_INT32_MAX", 0)
        arr = rng.integers(0, 256, (9, 11), dtype=np.uint8)
        for m, n in ((1, 1), (4, 1), (1, 3), (4, 3)):
            sums = window_sums(arr, m, n, 255)
            assert sums.dtype == (np.int64 if path == "int64-tables" else np.int32)
            assert np.array_equal(sums, _direct(arr, m, n))

    def test_dtype_follows_peak_not_data(self):
        assert window_sums(np.zeros((4, 4), np.int32), 2, 2, 2**30).dtype == np.int64
        assert window_sums(np.zeros((4, 4), np.int64), 2, 2, 255).dtype == np.int32


class TestVecDistance:
    def test_ssd(self):
        assert vec_distance([5, 7], [4, 6], VectorMetric.SSD) == 2

    def test_identity_all_metrics(self):
        for metric in VectorMetric:
            assert vec_distance([13, 15], [13, 15], metric) == 0

    def test_euclidean(self):
        assert vec_distance([5, 7], [4, 6], VectorMetric.EUCLIDEAN) == pytest.approx(
            math.sqrt(2), abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vec_distance([1, 2], [1, 2, 3], VectorMetric.SSD)


def test_projection_collision_within_column_permutation():
    # Permuting pixels inside a column leaves the projection unchanged: the
    # reduction is lossy by construction, and distinct windows can tie at 0.
    a = project_template(GrayImage([[0, 1], [1, 0]]))
    b = project_template(GrayImage([[1, 0], [0, 1]]))
    assert a.tolist() == b.tolist() == [1, 1]
    assert vec_distance(a, b, VectorMetric.SSD) == 0


small_pairs = st.tuples(
    hnp.arrays(np.uint8, (16, 16), elements=st.integers(0, 255)),
    hnp.arrays(np.uint8, (4, 4), elements=st.integers(0, 255)),
)


@settings(max_examples=30, deadline=None)
@given(small_pairs)
def test_vector_distances_lower_bound_2d(pair):
    s_arr, t_arr = pair
    m, n = t_arr.shape
    nt = t_arr.astype(np.int64).sum(axis=0)
    for i in range(s_arr.shape[0] - m + 1):
        for j in range(s_arr.shape[1] - n + 1):
            w = s_arr[i : i + m, j : j + n].astype(np.int64)
            d2 = w - t_arr.astype(np.int64)
            nw = w.sum(axis=0)
            dv = nw - nt
            # per-column triangle inequality
            assert np.abs(dv).sum() <= np.abs(d2).sum()
            # per-column Cauchy-Schwarz
            assert dv @ dv <= m * (d2 * d2).sum()


@settings(max_examples=30, deadline=None)
@given(small_pairs)
def test_euclid_argmin_matches_ssd_argmin(pair):
    from vecmatch import match_projected

    s, t = GrayImage(pair[0]), GrayImage(pair[1])
    _, ssd_map = match_projected(s, t, VectorMetric.SSD)
    _, euc_map = match_projected(s, t, VectorMetric.EUCLIDEAN)
    ssd = ssd_map.scores
    euc = euc_map.scores
    assert np.array_equal(ssd == ssd.min(), euc == euc.min())
