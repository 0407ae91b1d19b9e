import numpy as np
import pytest

from vecmatch import (
    DegenerateTemplateError,
    GrayImage,
    Rect,
    TemplateSizeError,
    VectorMetric,
    crop,
    match_dense,
)
from vecmatch.oracle import naive_ncc_map, naive_projected_map, naive_sad_map
from conftest import random_gray

S3 = GrayImage([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
T2 = GrayImage([[5, 6], [8, 9]])


def test_projected_map_hand_verified():
    # offset (0,0): NW=(5,7), NT=(13,15) -> 8^2 + 8^2 = 128
    smap = naive_projected_map(S3, T2, VectorMetric.SSD)
    assert smap.scores.tolist() == [[128, 72], [8, 0]]


def test_projected_map_trivial_1x1():
    one = GrayImage([[9]])
    assert naive_projected_map(one, one, VectorMetric.SSD).scores.tolist() == [[0]]


def test_sad_map_hand_verified():
    # 16 = |1-5| + |2-6| + |4-8| + |5-9|
    assert naive_sad_map(S3, T2).scores.tolist() == [[16, 12], [4, 0]]


@pytest.mark.parametrize("oracle", [
    lambda s, t: naive_projected_map(s, t, VectorMetric.SAD), naive_sad_map, naive_ncc_map,
], ids=["projected", "sad", "ncc"])
def test_template_too_large(oracle):
    with pytest.raises(TemplateSizeError, match="exceeds reference"):
        oracle(T2, S3)


def test_ncc_self_correlation(rng):
    s = random_gray(rng, 16, 16)
    t = crop(s, Rect(4, 7, 5, 5))
    smap = naive_ncc_map(s, t)
    assert smap.scores[4, 7] == pytest.approx(1.0, abs=1e-12)


def test_ncc_constant_template_rejected():
    with pytest.raises(DegenerateTemplateError):
        naive_ncc_map(S3, GrayImage(np.full((2, 2), 3, dtype=np.uint8)))


@pytest.mark.parametrize("seed", range(5))
def test_equivalence_sweep(seed):
    rng = np.random.default_rng(seed)
    s = random_gray(rng, 32, 32)
    t = random_gray(rng, 5, 7)
    for algo, metric in (("vec-ssd", VectorMetric.SSD), ("vec-sad", VectorMetric.SAD)):
        fast = match_dense(algo, s, t)[1]
        assert np.array_equal(fast, naive_projected_map(s, t, metric).scores)
    euc_fast = match_dense("vec-euclid", s, t)[1]
    euc_naive = naive_projected_map(s, t, VectorMetric.EUCLIDEAN).scores
    np.testing.assert_allclose(euc_fast, euc_naive, rtol=1e-9)
    assert np.array_equal(match_dense("sad", s, t)[1], naive_sad_map(s, t).scores)
    ncc_fast = match_dense("ncc", s, t)[1]
    ncc_naive = naive_ncc_map(s, t)
    assert np.array_equal(np.isnan(ncc_fast), ~ncc_naive.valid)
    np.testing.assert_allclose(
        ncc_fast[ncc_naive.valid], ncc_naive.scores[ncc_naive.valid], rtol=1e-9
    )
