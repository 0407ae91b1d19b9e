"""Tests of the benchmark itself: generator, checker and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import types

import pytest

from perfbench import metrics, runner
from perfbench.check import Outcome, check_instances, check_outcome, spot_check
from perfbench.tracing import Tracer
from perfbench.workloads import ALL_ALGOS, PERTURBATIONS, WORKLOADS, Request, build
from vecmatch import matchers

from .conftest import ROOT


def _fingerprint(wl):
    return (
        wl.reference.pixels.tobytes(),
        None if wl.color is None else wl.color.pixels.tobytes(),
        [(i.template.pixels.tobytes(), i.top, i.left, i.perturbation) for i in wl.instances],
        wl.blocks,
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    assert _fingerprint(build(name, 7)) == _fingerprint(build(name, 7))
    assert _fingerprint(build(name, 7)) != _fingerprint(build(name, 8))


def test_blocks_hold_whole_instances_and_balanced_mixes():
    wl = build("perturbed", 3)
    thirds = len(wl.blocks[0]) // len(PERTURBATIONS)
    for block in wl.blocks[:10]:
        kinds = sorted(wl.instances[r.instance].perturbation for r in block)
        assert kinds == sorted(PERTURBATIONS * thirds)
        assert sorted(r.algo for r in block) == sorted(ALL_ALGOS * (len(block) // 7))
    cli = build("cli-oneshot", 3)
    requests = [r for block in cli.blocks for r in block]
    assert sum(r.map for r in requests) * 5 == len(requests)
    assert sum(r.reference_format == "ppm" for r in requests) * 2 == len(requests)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_block_has_the_same_shapes_and_distinct_templates(name):
    wl = build(name, 5)

    def shapes(block):
        return sorted((wl.instances[r.instance].height, wl.instances[r.instance].width, r.algo)
                      for r in block)

    assert all(shapes(block) == shapes(wl.blocks[0]) for block in wl.blocks)
    positions = {(i.height, i.width, i.top, i.left) for i in wl.instances}
    assert len(positions) > 0.9 * len(wl.instances)


def _true_outcome(wl, index=0, algo="sad"):
    inst = wl.instances[index]
    return Outcome(Request(index, algo), 1, inst.top, inst.left, 0.0)


def test_checker_accepts_the_true_answer():
    wl = build("full-exact", 1)
    out = _true_outcome(wl)
    check_outcome(wl, out)
    assert not out.failed


def test_checker_rejects_a_wrong_score():
    wl = build("full-exact", 1)
    out = _true_outcome(wl)
    out.score = 3.0
    check_outcome(wl, out)
    assert out.failed


def test_checker_rejects_a_wrong_offset():
    wl = build("full-exact", 1)
    out = _true_outcome(wl)
    out.row += 1
    check_outcome(wl, out)
    assert out.failed


def test_checker_rejects_a_broken_invariant():
    wl = build("scan-512", 1)
    ssd = _true_outcome(wl, algo="vec-ssd")
    euclid = _true_outcome(wl, algo="vec-euclid")
    euclid.col += 1
    check_instances([ssd, euclid])
    assert ssd.failed and euclid.failed


def test_exception_counts_as_failed(tmp_path):
    def explode(req, map_path):
        raise RuntimeError("boom")

    outcomes, _, done, block_s = runner.drive([[Request(0, "sad"), Request(1, "ncc")]],
                                              explode, tmp_path)
    assert len(outcomes) == 2 and len(done) == len(block_s) == 1
    assert all(o.failed and "boom" in o.error for o in outcomes)


def test_parse_line_rejects_junk():
    assert runner.parse_line("3 4 0 1.5\n") == (3, 4, 0.0)
    with pytest.raises(ValueError):
        runner.parse_line("warning: something\n")


def test_spot_check_passes_on_the_current_code():
    assert spot_check(1, ALL_ALGOS, ("none", *PERTURBATIONS)) == []


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert tracer.self_ns() == [outer.ns - inner.ns, inner.ns]


def test_missing_name_records_zero_calls(tmp_path, monkeypatch):
    tracer = Tracer()
    tracer.wrap(types.SimpleNamespace(), "gone", "layer.gone")
    assert tracer.missing == ["layer.gone"]
    assert tracer.totals("layer.gone") == (0, 0, 0)

    # A refactor that drops build_column_sum_table from matchers.
    monkeypatch.delattr(matchers, "build_column_sum_table")
    wl = build("scan-512", 1)
    client = runner.Client(wl, tmp_path, ROOT / "src")
    requests = [[Request(0, "sadp"), Request(1, "nccp")]]
    with Tracer() as tracer:
        runner.hook(tracer)
        outcomes, _, _, _ = runner.drive(requests, client.library, tmp_path, tracer=tracer)
    assert tracer.missing == ["projection.build_column_sum_table"]
    assert not hasattr(matchers, "build_column_sum_table")
    layers = runner.per_layer(wl, tracer, outcomes, 1.0, 1.0, {})
    assert layers["projection.build_column_sum_table.calls"][0] == 0
    assert layers["matchers.match_pyramid.busy_ms"][0] > 0


def test_restore_puts_the_originals_back():
    original = matchers.match_full_sad
    with Tracer() as tracer:
        runner.hook(tracer)
        assert matchers.match_full_sad is not original
    assert matchers.match_full_sad is original


def test_benchmark_json_matches_the_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == metrics.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in on_disk["end_to_end"])
