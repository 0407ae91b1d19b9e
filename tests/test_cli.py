import subprocess
import sys

import numpy as np
import pytest

from vecmatch import GrayImage, Rect, crop, decode_pnm, encode_pgm, score_map_only
from vecmatch import matchers
from vecmatch.cli import main
from conftest import random_gray


@pytest.fixture
def images(tmp_path, rng):
    ref = random_gray(rng, 64, 80)
    tpl = crop(ref, Rect(10, 20, 16, 16))
    ref_path = tmp_path / "ref.pgm"
    tpl_path = tmp_path / "tpl.pgm"
    ref_path.write_bytes(encode_pgm(ref))
    tpl_path.write_bytes(encode_pgm(tpl))
    return ref_path, tpl_path


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

    @pytest.mark.parametrize("algo", ["ncc", "sad", "nccp", "sadp", "vec-sad"])
    def test_all_algorithms_find_crop(self, images, capsys, algo):
        ref, tpl = images
        assert main(["match", "--reference", str(ref), "--template", str(tpl),
                     "--algo", algo]) == 0
        fields = capsys.readouterr().out.split()
        assert fields[:2] == ["10", "20"]

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
    def test_map_runs_matcher_once(self, images, tmp_path, capsys, monkeypatch, algo):
        ref, tpl = images
        s, t = decode_pnm(ref.read_bytes()), decode_pnm(tpl.read_bytes())
        expected_csv = "".join(
            ",".join(repr(v) for v in row) + "\n"
            for row in np.asarray(score_map_only(s, t, algo).scores, dtype=np.float64).tolist()
        )
        calls = []
        for name in ("match_projected", "match_full_sad", "match_full_ncc"):
            original = getattr(matchers, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(matchers, name, counted)
        out = tmp_path / "map.csv"
        assert main(["match", "--reference", str(ref), "--template", str(tpl),
                     "--algo", algo, "--map", str(out)]) == 0
        assert len(calls) == 1
        plain = main(["match", "--reference", str(ref), "--template", str(tpl),
                      "--algo", algo])
        assert plain == 0 and len(calls) == 2
        with_map, without = capsys.readouterr().out.splitlines()
        assert with_map.split()[:3] == without.split()[:3]
        assert out.read_text() == expected_csv

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


def test_console_entry_subprocess(tmp_path):
    ref = GrayImage(np.arange(64, dtype=np.uint8).reshape(8, 8))
    ref_path = tmp_path / "ref.pgm"
    ref_path.write_bytes(encode_pgm(ref))
    proc = subprocess.run(
        [sys.executable, "-m", "vecmatch", "match", "--reference", str(ref_path),
         "--template", str(ref_path), "--algo", "vec-ssd"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.split()[:3] == ["0", "0", "0"]
