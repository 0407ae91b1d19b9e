import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vecmatch import GrayImage, VectorMetric, build_column_sum_table, project_template
from vecmatch.oracle import vec_distance


def test_project_column_sums():
    assert project_template(GrayImage([[1, 2], [3, 4]])).tolist() == [4, 6]


def test_project_single_row_identity():
    assert project_template(GrayImage([[5, 7, 9]])).tolist() == [5, 7, 9]


def test_project_zeros():
    assert project_template(GrayImage(np.zeros((3, 3), dtype=np.uint8))).tolist() == [0, 0, 0]


class TestColumnSumTable:
    def test_cumulative_rows(self):
        prefix = build_column_sum_table(GrayImage([[1, 2], [3, 4]]))
        assert prefix.tolist() == [[0, 0], [1, 2], [4, 6]]
        assert not prefix.flags.writeable

    def test_single_pixel(self):
        assert build_column_sum_table(GrayImage([[9]])).tolist() == [[0], [9]]

    @given(
        hnp.arrays(np.uint8, st.tuples(st.integers(1, 10), st.integers(1, 10)),
                   elements=st.integers(0, 255)),
    )
    def test_invariants(self, arr):
        prefix = build_column_sum_table(GrayImage(arr))
        assert (prefix[0] == 0).all()
        assert (np.diff(prefix, axis=0) >= 0).all()
        assert np.array_equal(prefix[-1], arr.sum(axis=0, dtype=np.int64))


def _window_column_sums(prefix, row, col, m, n):
    """Column sums of the m x n window at (row, col): a prefix-row difference."""
    return prefix[row + m, col : col + n] - prefix[row, col : col + n]


class TestWindowColumnSums:
    S = GrayImage([[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_top_left(self):
        prefix = build_column_sum_table(self.S)
        assert _window_column_sums(prefix, 0, 0, 2, 2).tolist() == [5, 7]

    def test_inner(self):
        prefix = build_column_sum_table(self.S)
        assert _window_column_sums(prefix, 1, 1, 2, 2).tolist() == [13, 15]

    @given(
        hnp.arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                   elements=st.integers(0, 255)),
        st.data(),
    )
    def test_matches_direct_summation_everywhere(self, arr, data):
        img = GrayImage(arr)
        m = data.draw(st.integers(1, img.height))
        n = data.draw(st.integers(1, img.width))
        prefix = build_column_sum_table(img)
        for i in range(img.height - m + 1):
            for j in range(img.width - n + 1):
                direct = arr[i : i + m, j : j + n].astype(np.int64).sum(axis=0)
                assert np.array_equal(_window_column_sums(prefix, i, j, m, n), direct)


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
