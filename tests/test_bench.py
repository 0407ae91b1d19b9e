import numpy as np
import pytest

from vecmatch import GrayImage, cli, encode_pgm
from vecmatch.bench import (
    BenchPlan,
    BenchRecord,
    CSV_HEADER,
    emit_csv,
    parse_csv,
    run_plan,
)
from conftest import count_calls, random_gray


@pytest.fixture
def reference_path(tmp_path, rng):
    path = tmp_path / "ref.pgm"
    path.write_bytes(encode_pgm(random_gray(rng, 96, 96)))
    return path


def test_cardinality_and_correctness(reference_path):
    plan = BenchPlan(
        reference=reference_path,
        sizes=(8, 16, 24),
        algorithms=("ncc", "sad", "vec-ssd"),
        repetitions=1,
    )
    records = run_plan(plan)
    assert len(records) == 9
    assert all(r.correct for r in records)
    assert all(r.elapsed_ns > 0 for r in records)
    assert all(r.peak_bytes > 0 for r in records)


def test_all_seven_algorithms_correct(reference_path):
    plan = BenchPlan(reference=reference_path, sizes=(24,), repetitions=1)
    records = run_plan(plan)
    assert len(records) == 7
    assert all(r.correct for r in records)


def test_single_pixel_template(tmp_path):
    # all-distinct pixels, so the 1x1 match is unambiguous
    path = tmp_path / "ref.pgm"
    path.write_bytes(encode_pgm(GrayImage(np.arange(256, dtype=np.uint8).reshape(16, 16))))
    plan = BenchPlan(reference=path, sizes=(1,), algorithms=("vec-ssd",), repetitions=1)
    (record,) = run_plan(plan)
    assert record.correct
    assert record.score == 0
    assert record.repetitions == 1


def test_edge_positions(reference_path):
    plan = BenchPlan(
        reference=reference_path,
        sizes=(16,),
        positions="edge",
        algorithms=("sadp", "vec-ssd"),
        repetitions=1,
    )
    records = run_plan(plan)
    assert all((r.true_row, r.true_col) == (0, 0) and r.correct for r in records)


def test_explicit_positions(reference_path):
    plan = BenchPlan(
        reference=reference_path,
        sizes=(8, 8),
        positions=[(3, 5), (40, 60)],
        algorithms=("sad",),
        repetitions=1,
    )
    records = run_plan(plan)
    assert [(r.true_row, r.true_col) for r in records] == [(3, 5), (40, 60)]
    assert all(r.correct for r in records)


def test_position_count_must_match_sizes(reference_path):
    plan = BenchPlan(reference=reference_path, sizes=(8, 16), positions=[(3, 5)],
                     algorithms=("sad",), repetitions=1)
    with pytest.raises(ValueError, match="1 positions given for 2 template sizes"):
        run_plan(plan)


def test_zero_repetitions(reference_path):
    with pytest.raises(ValueError, match="repetitions"):
        run_plan(BenchPlan(reference=reference_path, repetitions=0))


def test_sizes_clipped_to_image(reference_path):
    plan = BenchPlan(
        reference=reference_path, sizes=(500,), algorithms=("vec-sad",), repetitions=1
    )
    (record,) = run_plan(plan)
    assert record.template_h == record.template_w == 96


def test_unknown_algorithm(reference_path):
    plan = BenchPlan(reference=reference_path, algorithms=("fft-sad",))
    with pytest.raises(ValueError):
        run_plan(plan)


def test_undecodable_reference(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"not a pnm file")
    with pytest.raises(ValueError):
        run_plan(BenchPlan(reference=bad))


def test_color_reference_converted(tmp_path, rng):
    path = tmp_path / "ref.ppm"
    rgb = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    from vecmatch import ColorImage, encode_ppm

    path.write_bytes(encode_ppm(ColorImage(rgb)))
    records = run_plan(
        BenchPlan(reference=path, sizes=(16,), algorithms=("sad",), repetitions=1)
    )
    assert records[0].correct


def test_reference_read_once_by_cli_loader(reference_path, monkeypatch):
    # perfbench traces image loading by wrapping vecmatch.cli.decode_pnm
    calls = count_calls(monkeypatch, cli, ("decode_pnm",))
    run_plan(BenchPlan(reference=reference_path, sizes=(8, 16), algorithms=("sad",),
                       repetitions=2))
    assert calls == ["decode_pnm"]


def test_exact_score_written_as_integer(reference_path):
    # the record's score is run_algorithm's, and its type decides the cell
    (record,) = run_plan(BenchPlan(reference=reference_path, sizes=(24,),
                                   algorithms=("sadp",), repetitions=1))
    assert type(record.score) is int
    assert emit_csv([record]).decode().splitlines()[1].split(",")[9] == "0"


def test_monotone_cost_full_search(tmp_path, rng):
    path = tmp_path / "ref.pgm"
    path.write_bytes(encode_pgm(random_gray(rng, 160, 160)))
    plan = BenchPlan(
        reference=path, sizes=(16, 32, 64), algorithms=("sad",), repetitions=5
    )
    run_plan(plan)  # warm-up pass
    records = run_plan(plan)
    times = [r.elapsed_ns for r in records]
    for smaller, larger in zip(times, times[1:]):
        assert larger >= smaller * 0.9  # 10% jitter tolerance


class TestCsv:
    def test_empty_records(self):
        data = emit_csv([])
        assert data.decode().strip() == ",".join(CSV_HEADER)

    def test_one_record_two_lines(self):
        record = BenchRecord("ref", "sad", 8, 8, 1, 2, 1, 2, True, 0, 1234, 3, 4096)
        lines = emit_csv([record]).decode().strip().splitlines()
        assert len(lines) == 2

    def test_round_trip(self, reference_path):
        plan = BenchPlan(
            reference=reference_path,
            sizes=(8, 16),
            algorithms=("sad", "ncc", "vec-euclid"),
            repetitions=1,
        )
        records = run_plan(plan)
        assert parse_csv(emit_csv(records)) == records

    def test_round_trip_quoting(self):
        record = BenchRecord('we,"ird', "sad", 8, 8, 0, 0, 0, 0, False, 1.5, 99, 1, 4096)
        assert parse_csv(emit_csv([record])) == [record]

    @pytest.mark.parametrize("data", [b"", b"reference_id,algorithm\n",
                                      ",".join(reversed(CSV_HEADER)).encode()])
    def test_bad_header(self, data):
        with pytest.raises(ValueError, match="header"):
            parse_csv(data)

    @pytest.mark.parametrize("data", [
        b"a\rb,c\n",  # a bare carriage return, which the csv module rejects
        ",".join(CSV_HEADER).encode() + b"\nref,sad,8\n",
        ",".join(CSV_HEADER).encode() + b"\n" + b",".join([b"1"] * 14) + b"\n",
        emit_csv([BenchRecord("ref", "sad", 8, 8, 1, 2, 1, 2, True, 0, 1234, 3, 4096)])
        .replace(b",true,", b",yes,"),
    ])
    def test_malformed_rows(self, data):
        # every malformed input is a ValueError: a row of too few cells is
        # not a TypeError, nor is one of too many truncated, nor a bool
        # other than true or false read as false
        with pytest.raises(ValueError):
            parse_csv(data)

    def test_header_fields(self):
        header = emit_csv([]).decode().strip()
        assert header == (
            "reference_id,algorithm,template_h,template_w,true_row,true_col,"
            "found_row,found_col,correct,score,elapsed_ns,repetitions,peak_bytes"
        )
