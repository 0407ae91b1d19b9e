import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vecmatch
from vecmatch import (
    ALGORITHMS, ColorImage, GrayImage, Rect, ScoreOverflowError, crop, decode_pnm,
    encode_pgm, encode_ppm, score_map_only, to_gray,
)
from vecmatch import cli, matchers
from vecmatch.bench import parse_csv
from vecmatch.cli import main
from vecmatch.image import GRAY_MODES
from conftest import count_calls, random_gray


# The score field `vecmatch match` prints for an exact crop: an integer for
# the exact-integer scores, six decimals for the others.
EXACT_CROP_SCORE = {
    "ncc": "1.000000",
    "sad": "0",
    "nccp": "1.000000",
    "sadp": "0",
    "vec-ssd": "0",
    "vec-sad": "0",
    "vec-euclid": "0.000000",
}

# The module attribute each algorithm's search must go through.
MATCHER_OF = {
    "ncc": "match_full_ncc",
    "sad": "match_full_sad",
    "nccp": "match_pyramid",
    "sadp": "match_pyramid",
    "vec-ssd": "match_projected",
    "vec-sad": "match_projected",
    "vec-euclid": "match_projected",
}
# Without --map, vec-sad and vec-ssd find their best offset without the
# dense score map.
PLAIN_MATCHER_OF = dict(MATCHER_OF, **{"vec-sad": "_match_vec_sad",
                                       "vec-ssd": "_match_vec_ssd"})


def count_matcher_calls(monkeypatch) -> list[str]:
    """Count every call of a matcher in vecmatch.matchers, by name."""
    return count_calls(monkeypatch, matchers,
                       sorted({*MATCHER_OF.values(), *PLAIN_MATCHER_OF.values()}))


@pytest.fixture
def images(tmp_path, rng):
    ref = random_gray(rng, 64, 80)
    tpl = crop(ref, Rect(10, 20, 16, 16))
    ref_path = tmp_path / "ref.pgm"
    tpl_path = tmp_path / "tpl.pgm"
    ref_path.write_bytes(encode_pgm(ref))
    tpl_path.write_bytes(encode_pgm(tpl))
    return ref_path, tpl_path


@pytest.fixture
def color_images(tmp_path, rng):
    """A PPM reference and, per gray mode, a PGM template cut at (10, 20)
    from the reference's gray conversion in that mode."""
    ref = ColorImage(rng.integers(0, 256, (64, 80, 3), dtype=np.uint8))
    ref_path = tmp_path / "ref.ppm"
    ref_path.write_bytes(encode_ppm(ref))
    templates = {}
    for mode in GRAY_MODES:
        templates[mode] = tmp_path / f"tpl-{mode}.pgm"
        templates[mode].write_bytes(encode_pgm(crop(to_gray(ref, mode), Rect(10, 20, 16, 16))))
    return ref_path, templates


class TestMatch:
    def test_vec_ssd_finds_crop(self, images, capsys):
        ref, tpl = images
        code = main(["match", "--reference", str(ref), "--template", str(tpl),
                     "--algo", "vec-ssd"])
        assert code == 0
        fields = capsys.readouterr().out.split()
        assert fields[:3] == ["10", "20", "0"]
        float(fields[3])  # elapsed_ms parses

    def test_vec_euclid_same_position(self, images, capsys):
        ref, tpl = images
        assert main(["match", "--reference", str(ref), "--template", str(tpl),
                     "--algo", "vec-euclid"]) == 0
        fields = capsys.readouterr().out.split()
        assert fields[:3] == ["10", "20", "0.000000"]

    @pytest.mark.parametrize("algo", list(EXACT_CROP_SCORE))
    def test_all_algorithms_find_crop(self, images, capsys, algo):
        ref, tpl = images
        assert main(["match", "--reference", str(ref), "--template", str(tpl),
                     "--algo", algo]) == 0
        fields = capsys.readouterr().out.split()
        assert fields[:3] == ["10", "20", EXACT_CROP_SCORE[algo]]

    @pytest.mark.parametrize("mode", GRAY_MODES)
    @pytest.mark.parametrize("algo", list(EXACT_CROP_SCORE))
    def test_color_reference_finds_crop(self, color_images, capsys, mode, algo):
        ref, templates = color_images
        assert main(["match", "--reference", str(ref), "--template", str(templates[mode]),
                     "--algo", algo, "--color-mode", mode]) == 0
        assert capsys.readouterr().out.split()[:3] == ["10", "20", EXACT_CROP_SCORE[algo]]

    def test_loader_calls_traced_names(self, color_images, capsys, monkeypatch):
        # perfbench traces image loading by wrapping these names of vecmatch.cli
        calls = count_calls(monkeypatch, cli, ("decode_pnm", "to_gray"))
        ref, templates = color_images
        assert main(["match", "--reference", str(ref), "--template", str(templates["luma"]),
                     "--algo", "vec-ssd"]) == 0
        assert sorted(calls) == ["decode_pnm", "decode_pnm", "to_gray"]

    def test_constant_template_ncc_fails(self, tmp_path, rng, capsys):
        ref_path = tmp_path / "ref.pgm"
        tpl_path = tmp_path / "tpl.pgm"
        ref_path.write_bytes(encode_pgm(random_gray(rng, 16, 16)))
        tpl_path.write_bytes(encode_pgm(GrayImage(np.full((4, 4), 9, dtype=np.uint8))))
        code = main(["match", "--reference", str(ref_path), "--template", str(tpl_path),
                     "--algo", "ncc"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "variance" in captured.err

    def test_unreadable_file(self, images, capsys):
        ref, _ = images
        code = main(["match", "--reference", str(ref), "--template", "/nonexistent.pgm",
                     "--algo", "sad"])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_map_export(self, images, tmp_path, capsys):
        ref, tpl = images
        out = tmp_path / "map.csv"
        assert main(["match", "--reference", str(ref), "--template", str(tpl),
                     "--algo", "vec-ssd", "--map", str(out)]) == 0
        grid = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert len(grid) == 64 - 16 + 1
        assert len(grid[0]) == 80 - 16 + 1
        assert float(grid[10][20]) == 0.0

    @pytest.mark.parametrize("algo", ["vec-ssd", "vec-sad", "vec-euclid", "sad", "ncc"])
    def test_map_runs_matcher_once(self, images, tmp_path, rng, capsys, monkeypatch, algo):
        # also on a reference tiled from one 3 x 4 block, where the crop
        # matches exactly at every period, so the best score ties many times
        tiled = GrayImage(np.tile(random_gray(rng, 3, 4).pixels, (22, 20)))
        tiled_paths = (tmp_path / "tiled.pgm", tmp_path / "tiled-tpl.pgm")
        tiled_paths[0].write_bytes(encode_pgm(tiled))
        tiled_paths[1].write_bytes(encode_pgm(crop(tiled, Rect(10, 20, 16, 16))))
        calls = count_matcher_calls(monkeypatch)
        for ref, tpl in (images, tiled_paths):
            s, t = decode_pnm(ref.read_bytes()), decode_pnm(tpl.read_bytes())
            expected_csv = "".join(
                ",".join(repr(v) for v in row) + "\n"
                for row in np.asarray(score_map_only(s, t, algo).scores,
                                      dtype=np.float64).tolist()
            )
            calls.clear()
            out = tmp_path / "map.csv"
            assert main(["match", "--reference", str(ref), "--template", str(tpl),
                         "--algo", algo, "--map", str(out)]) == 0
            assert calls == [MATCHER_OF[algo]]
            plain = main(["match", "--reference", str(ref), "--template", str(tpl),
                          "--algo", algo])
            assert plain == 0 and calls == [MATCHER_OF[algo], PLAIN_MATCHER_OF[algo]]
            with_map, without = capsys.readouterr().out.splitlines()
            assert with_map.split()[:3] == without.split()[:3]
            assert out.read_text() == expected_csv

    @pytest.mark.parametrize("algo", list(PLAIN_MATCHER_OF))
    def test_run_algorithm_reaches_matcher_once(self, images, monkeypatch, algo):
        ref, tpl = images
        s, t = decode_pnm(ref.read_bytes()), decode_pnm(tpl.read_bytes())
        calls = count_matcher_calls(monkeypatch)
        result = matchers.run_algorithm(algo, s, t)
        assert calls == [PLAIN_MATCHER_OF[algo]]
        assert (result.row, result.col, result.metric) == (10, 20, algo)

    def test_ssd_range_checked_before_scoring(self, images, capsys, monkeypatch):
        # as test_matchers' test_checked_before_scoring for match_projected:
        # without --map, a 16 x 16 vec-ssd trips a limit of 100 before any
        # prefix table is built
        ref, tpl = images
        s, t = decode_pnm(ref.read_bytes()), decode_pnm(tpl.read_bytes())
        monkeypatch.setattr(matchers, "_INT64_MAX", 100)

        def unreachable(*args):
            raise AssertionError("scoring started before the range check")

        monkeypatch.setattr(matchers, "build_column_sum_table", unreachable)
        with pytest.raises(ScoreOverflowError):
            matchers.run_algorithm("vec-ssd", s, t)
        assert main(["match", "--reference", str(ref), "--template", str(tpl),
                     "--algo", "vec-ssd"]) == 1
        assert "int64" in capsys.readouterr().err

    def test_pyramid_flag_warning(self, images, capsys):
        ref, tpl = images
        assert main(["match", "--reference", str(ref), "--template", str(tpl),
                     "--algo", "sad", "--levels", "3"]) == 0
        assert "ignored" in capsys.readouterr().err


class TestCrop:
    def test_crop_then_match(self, tmp_path, rng, capsys):
        ref_path = tmp_path / "ref.pgm"
        ref_path.write_bytes(encode_pgm(random_gray(rng, 48, 48)))
        out_path = tmp_path / "out.pgm"
        assert main(["crop", "--input", str(ref_path), "--top", "7", "--left", "11",
                     "--height", "12", "--width", "12", "--output", str(out_path)]) == 0
        assert main(["match", "--reference", str(ref_path), "--template", str(out_path),
                     "--algo", "vec-ssd"]) == 0
        assert capsys.readouterr().out.split()[:2] == ["7", "11"]

    def test_full_extent_round_trip(self, tmp_path, rng):
        ref_path = tmp_path / "ref.pgm"
        ref_path.write_bytes(encode_pgm(random_gray(rng, 8, 8)))
        out_path = tmp_path / "out.pgm"
        assert main(["crop", "--input", str(ref_path), "--top", "0", "--left", "0",
                     "--height", "8", "--width", "8", "--output", str(out_path)]) == 0
        assert out_path.read_bytes() == ref_path.read_bytes()

    def test_zero_height_fails(self, tmp_path, rng, capsys):
        ref_path = tmp_path / "ref.pgm"
        ref_path.write_bytes(encode_pgm(random_gray(rng, 8, 8)))
        code = main(["crop", "--input", str(ref_path), "--top", "0", "--left", "0",
                     "--height", "0", "--width", "4", "--output", str(tmp_path / "o.pgm")])
        assert code == 1
        assert capsys.readouterr().err != ""


class TestBench:
    def test_csv_cardinality(self, tmp_path, rng, capsys):
        ref_path = tmp_path / "ref.pgm"
        ref_path.write_bytes(encode_pgm(random_gray(rng, 96, 96)))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--reference", str(ref_path), "--sizes", "25,50",
                     "--algos", "sad,vec-ssd", "--reps", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 data rows
        assert all(line.split(",")[8] == "true" for line in lines[1:])
        assert capsys.readouterr().out.strip() != ""

    def test_unknown_algorithm(self, tmp_path, rng, capsys):
        ref_path = tmp_path / "ref.pgm"
        ref_path.write_bytes(encode_pgm(random_gray(rng, 32, 32)))
        code = main(["bench", "--reference", str(ref_path), "--sizes", "8",
                     "--algos", "fft-sad", "--reps", "1",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_unknown_positions_keyword(self, tmp_path, rng, capsys):
        ref_path = tmp_path / "ref.pgm"
        ref_path.write_bytes(encode_pgm(random_gray(rng, 32, 32)))
        code = main(["bench", "--reference", str(ref_path), "--sizes", "8",
                     "--positions", "center", "--reps", "1",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 1
        assert "unknown positions value" in capsys.readouterr().err

    def test_color_reference_same_positions(self, color_images, tmp_path, capsys):
        # the positions `match` finds on the same PPM under channel-sum
        ref, _ = color_images
        out = tmp_path / "bench.csv"
        assert main(["bench", "--reference", str(ref), "--sizes", "16",
                     "--positions", "10:20", "--color-mode", "channel-sum",
                     "--reps", "1", "--out", str(out)]) == 0
        records = parse_csv(out.read_bytes())
        assert [r.algorithm for r in records] == list(ALGORITHMS)
        assert all((r.found_row, r.found_col) == (10, 20) for r in records)


def _child_env() -> dict:
    """Environment of a child python that imports the vecmatch this test
    imported, installed or not."""
    src = str(Path(vecmatch.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _ramp_pgm(tmp_path) -> str:
    ref_path = tmp_path / "ref.pgm"
    ref_path.write_bytes(encode_pgm(GrayImage(np.arange(64, dtype=np.uint8).reshape(8, 8))))
    return str(ref_path)


def test_console_entry_subprocess(tmp_path):
    ref_path = _ramp_pgm(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "vecmatch", "match", "--reference", ref_path,
         "--template", ref_path, "--algo", "vec-ssd"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.split()[:3] == ["0", "0", "0"]


def test_match_does_not_import_bench(tmp_path):
    # the bench harness, and its csv and statistics imports, load only for
    # `vecmatch bench`
    ref_path = _ramp_pgm(tmp_path)
    argv = ["match", "--reference", ref_path, "--template", ref_path, "--algo", "sadp"]
    code = ("import sys\n"
            "from vecmatch.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('vecmatch.bench' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
