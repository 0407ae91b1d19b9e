"""Acceptance suite: each test prints one pass/fail line for its criterion."""

import statistics

import numpy as np
import pytest

from vecmatch import (
    ALGORITHMS,
    DegenerateTemplateError,
    GrayImage,
    Rect,
    VectorMetric,
    crop,
    decode_pnm,
    encode_pgm,
    match_full_ncc,
    match_full_sad,
    match_projected,
    run_algorithm,
)
from vecmatch.bench import BenchRecord, emit_csv, parse_csv
from vecmatch.oracle import naive_ncc_map, naive_projected_map, naive_sad_map
from conftest import textured_gray

SIZES = (25, 50, 100, 150, 200)


def report(num, description, passed=True):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {description}")


@pytest.fixture(scope="module")
def reference():
    # smoothed noise: locally distinctive yet spatially correlated, like the
    # photographic references the protocol calls for (white noise would starve
    # the coarse pyramid levels of structure)
    rng = np.random.default_rng(512)
    return textured_gray(rng, 512, 512)


def _median_elapsed(name, s, t, reps):
    run_algorithm(name, s, t)  # warm-up, excluded from timing
    return statistics.median(
        run_algorithm(name, s, t).elapsed_ns for _ in range(reps)
    )


@pytest.fixture(scope="module")
def sweep():
    """200 random instances, refs up to 64x64 and templates up to 16x16,
    plus 1x1 and full-size edge cases."""
    rng = np.random.default_rng(64)
    instances = [
        (GrayImage([[7]]), GrayImage([[7]])),
        (GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8)), None),  # full size
        (GrayImage(rng.integers(0, 256, (1, 64), dtype=np.uint8)),
         GrayImage(rng.integers(0, 256, (1, 5), dtype=np.uint8))),
        (GrayImage(rng.integers(0, 256, (64, 1), dtype=np.uint8)),
         GrayImage(rng.integers(0, 256, (5, 1), dtype=np.uint8))),
    ]
    instances[1] = (instances[1][0], instances[1][0])
    while len(instances) < 200:
        p = int(rng.integers(4, 65))
        q = int(rng.integers(4, 65))
        m = int(rng.integers(1, min(16, p) + 1))
        n = int(rng.integers(1, min(16, q) + 1))
        s = GrayImage(rng.integers(0, 256, (p, q), dtype=np.uint8))
        t = GrayImage(rng.integers(0, 256, (m, n), dtype=np.uint8))
        instances.append((s, t))
    return instances


def test_criterion_1_clean_data_exactness(reference):
    failures = []
    for size in SIZES:
        centered = ((512 - size) // 2, (512 - size) // 2)
        for top, left in (centered, (0, 0)):
            t = crop(reference, Rect(top, left, size, size))
            for name in ALGORITHMS:
                result = run_algorithm(name, reference, t)
                if (result.row, result.col) != (top, left):
                    failures.append((name, size, (top, left), (result.row, result.col)))
    assert not failures, failures
    report(1, "all 7 algorithms exact on 10 cropped templates (25^2..200^2, "
              "centered and corner)")


def test_criterion_2_oracle_equivalence(sweep):
    for s, t in sweep:
        for metric in (VectorMetric.SSD, VectorMetric.SAD):
            fast = match_projected(s, t, metric)[1].scores
            naive = naive_projected_map(s, t, metric).scores
            assert np.array_equal(fast, naive)
        euc_fast = match_projected(s, t, VectorMetric.EUCLIDEAN)[1].scores
        euc_naive = naive_projected_map(s, t, VectorMetric.EUCLIDEAN).scores
        np.testing.assert_allclose(euc_fast, euc_naive, rtol=1e-9)
        assert np.array_equal(match_full_sad(s, t)[1].scores, naive_sad_map(s, t).scores)
        if int(t.pixels.min()) == int(t.pixels.max()):
            with pytest.raises(DegenerateTemplateError):
                match_full_ncc(s, t)
            with pytest.raises(DegenerateTemplateError):
                naive_ncc_map(s, t)
            continue
        fast_map = match_full_ncc(s, t)[1]
        naive_map = naive_ncc_map(s, t)
        assert np.array_equal(fast_map.valid, naive_map.valid)
        np.testing.assert_allclose(
            fast_map.scores[fast_map.valid], naive_map.scores[naive_map.valid],
            rtol=1e-9,
        )
    report(2, "fast-path score maps equal the brute-force oracle on 200 random "
              "instances (bit-exact integer metrics, 1e-9 relative for ncc/euclid)")


def test_criterion_3_lower_bounds(sweep):
    for s, t in sweep:
        m = t.height
        vec_sad = match_projected(s, t, VectorMetric.SAD)[1].scores
        vec_ssd = match_projected(s, t, VectorMetric.SSD)[1].scores
        sad_2d = match_full_sad(s, t)[1].scores
        # 2-D SSD computed independently for the bound check
        rows, cols = sad_2d.shape
        t64 = t.pixels.astype(np.int64)
        ssd_2d = np.empty((rows, cols), dtype=np.int64)
        for i in range(rows):
            for j in range(cols):
                d = s.pixels[i : i + t.height, j : j + t.width].astype(np.int64) - t64
                ssd_2d[i, j] = (d * d).sum()
        assert (vec_sad <= sad_2d).all()
        assert (vec_ssd <= m * ssd_2d).all()
    report(3, "vec-SAD <= 2-D SAD and vec-SSD <= m * 2-D SSD at every offset, "
              "zero violations")


def test_criterion_4_argmin_invariance(sweep):
    for s, t in sweep:
        ssd = match_projected(s, t, VectorMetric.SSD)[0]
        euc = match_projected(s, t, VectorMetric.EUCLIDEAN)[0]
        assert (ssd.row, ssd.col) == (euc.row, euc.col)
    report(4, "vec-ssd and vec-euclid agree on (row, col) for every sweep instance")


def test_criterion_5_relative_speed(reference):
    reps = 3
    medians = {}
    for size in (50, 100):
        c = (512 - size) // 2
        t = crop(reference, Rect(c, c, size, size))
        for name in ("vec-ssd", "sad", "ncc"):
            medians[(name, size)] = _median_elapsed(name, reference, t, reps)
    for size in (50, 100):
        vec, sad, ncc = (medians[(n, size)] for n in ("vec-ssd", "sad", "ncc"))
        assert vec < sad < ncc, (size, vec, sad, ncc)
        assert ncc >= 3 * vec, (size, ncc / vec)
    report(5, "median wall time vec-ssd < sad < ncc at 50^2 and 100^2, with "
              "ncc/vec-ssd ratio >= 3x")


def test_criterion_6_pyramid_speedup_and_position(reference):
    size = 100
    c = (512 - size) // 2
    t_center = crop(reference, Rect(c, c, size, size))
    sadp = _median_elapsed("sadp", reference, t_center, 3)
    sad = _median_elapsed("sad", reference, t_center, 3)
    assert sadp < sad, (sadp, sad)
    t_corner = crop(reference, Rect(0, 0, size, size))
    result = run_algorithm("sadp", reference, t_corner)
    assert (result.row, result.col) == (0, 0)
    report(6, "sadp faster than sad on a centered 100^2 crop and still exact "
              "at the (0,0) corner with radius 2")


def test_criterion_7_similarity_function_comparison(reference):
    # alternating blocks pool samples so machine-state drift hits both
    # algorithms equally; a single contaminated block cannot flip the median
    size = 100
    c = (512 - size) // 2
    t = crop(reference, Rect(c, c, size, size))
    samples = {"vec-ssd": [], "vec-euclid": []}
    for name in samples:
        run_algorithm(name, reference, t)  # warm-up
    for _ in range(4):
        for name in samples:
            samples[name].extend(
                run_algorithm(name, reference, t).elapsed_ns for _ in range(6)
            )
    ssd = statistics.median(samples["vec-ssd"])
    euc = statistics.median(samples["vec-euclid"])
    assert ssd <= euc, (ssd, euc)
    report(7, "vec-ssd median time <= vec-euclid median time on 100^2 templates")


def test_criterion_8_round_trips():
    rng = np.random.default_rng(8)
    for _ in range(100):
        h, w = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        img = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
        assert decode_pnm(encode_pgm(img)) == img
    for _ in range(25):
        records = [
            BenchRecord(
                reference_id=f"ref-{rng.integers(100)}",
                algorithm=str(rng.choice(ALGORITHMS)),
                template_h=int(rng.integers(1, 200)),
                template_w=int(rng.integers(1, 200)),
                true_row=int(rng.integers(0, 500)),
                true_col=int(rng.integers(0, 500)),
                found_row=int(rng.integers(0, 500)),
                found_col=int(rng.integers(0, 500)),
                correct=bool(rng.integers(2)),
                score=float(rng.random() * 100) if rng.integers(2) else int(rng.integers(1000)),
                elapsed_ns=int(rng.integers(1, 10**9)),
                repetitions=int(rng.integers(1, 10)),
                peak_bytes=int(rng.integers(0, 10**9)),
            )
            for _ in range(int(rng.integers(0, 12)))
        ]
        assert parse_csv(emit_csv(records)) == records
    report(8, "codec and CSV round trips 100% exact on randomized inputs")
