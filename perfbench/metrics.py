"""The benchmark's metric catalogue; ``BENCHMARK.json`` is generated from it.

Each per-layer metric names the end-to-end metric it should move and the
workloads where it should move or stay flat, so a change that claims a gain
on one layer can be held to that prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .workloads import ALL_ALGOS, WORKLOADS

LIBRARY = "scan-512, full-exact, perturbed"
# Set-ups per run. One takes 0.1-0.3 s in a library workload (about 1 s in
# cli-oneshot) and varies by about 20 % between repeats, so setup_s is the
# median of several.
SETUPS = 7


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str = "-"  # end-to-end metric this one should move
    on: str = "-"  # workloads where it should move
    flat_on: str = "-"  # workloads where it should not


END_TO_END = (
    EndToEnd("requests_per_s", "1/s", "higher", 0.25,
             "median over the run's equal blocks of completed requests / wall time"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median over the request slots of a block of each slot's median time from "
             "call to return (library) or spawn to exit (CLI) over the run's blocks"),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.25, "90th percentile of the same"),
    EndToEnd("hit_rate", "frac", "higher", 0.1,
             "share of requests whose (row, col) is the true offset"),
    EndToEnd("ok_frac", "frac", "higher", 0.02,
             "1 - failed_frac: share of requests that returned and passed the checks"),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.1,
             "peak RSS of the serving process (CLI: largest child)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             f"median of {SETUPS} set-ups: generate inputs and files, warm each algorithm once"),
)

_PROJ = dict(moves="requests_per_s", on="scan-512", flat_on="full-exact")
_SAD = dict(moves="requests_per_s", on="full-exact", flat_on="must not worsen on perturbed")
_NCC = dict(moves="requests_per_s, latency_p90_ms, peak_rss_mib",
            on="full-exact, perturbed", flat_on="scan-512")
_PYR = dict(moves="latency_p50_ms; hit_rate", on="scan-512; perturbed", flat_on="full-exact")
_MAP = dict(moves="latency_p90_ms", on="cli-oneshot", flat_on=LIBRARY)
_DECODE = dict(moves="latency_p50_ms", on="cli-oneshot", flat_on=LIBRARY)
_CLI = dict(moves="latency_p50_ms, latency_p90_ms, peak_rss_mib", on="cli-oneshot",
            flat_on=LIBRARY)
_ALGO = dict(moves="per-algorithm split of the above", on="all")

PER_LAYER = (
    Layer("projection.build_column_sum_table.calls", "1/req", "lower", **_PROJ),
    Layer("projection.build_column_sum_table.busy_ms", "ms/req", "lower", **_PROJ),
    Layer("projection.project_template.busy_ms", "ms/req", "lower", **_PROJ),
    Layer("matchers.match_projected.self_ms", "ms/req", "lower",
          moves="latency_p50_ms", on="scan-512", flat_on="full-exact"),
    Layer("matchers.match_full_sad.busy_ms", "ms/req", "lower", **_SAD),
    Layer("matchers.match_full_sad.mcells_per_s", "Mcell/s", "higher", **_SAD),
    Layer("matchers.match_full_ncc.busy_ms", "ms/req", "lower", **_NCC),
    Layer("matchers.match_full_ncc.mcells_per_s", "Mcell/s", "higher", **_NCC),
    Layer("matchers.match_pyramid.busy_ms", "ms/req", "lower", **_PYR),
    Layer("matchers.match_pyramid.levels", "levels", "higher", **_PYR),
    *(
        Layer(f"matchers.{algo}.{stat}", unit, better, **_ALGO)
        for algo in ALL_ALGOS
        for stat, unit, better in (("calls", "1/req", "lower"), ("p50_ms", "ms", "lower"),
                                   ("hit_rate", "frac", "higher"))
    ),
    Layer("matchers.score_map_only.calls", "1/req", "lower", **_MAP),
    Layer("matchers.map_request.passes", "passes", "lower", **_MAP),
    Layer("image.decode_pnm.busy_ms", "ms/req", "lower", **_DECODE),
    Layer("image.decode_pnm.mb_per_s", "MB/s", "higher", **_DECODE),
    Layer("image.to_gray.busy_ms", "ms/req", "lower", **_DECODE),
    Layer("cli.interp_ms", "ms", "lower", **_CLI),
    Layer("cli.import_ms", "ms", "lower", **_CLI),
    Layer("cli.main.self_ms", "ms/req", "lower", **_CLI),
    Layer("cli.main.p50_ms", "ms", "lower", **_CLI),
    Layer("cli.map_bytes", "B", "lower", **_CLI),
    Layer("cli.process_overhead_ms", "ms", "lower", **_CLI),
    Layer("trace.overhead_frac", "frac", "lower", on="all"),
)

WHY = {
    "scan-512": "paper experiment: 5 projected/pyramid algos, exact crops 16-200 on one 512^2 "
                "ref; runs prefix table, vector scoring, pyramid; no full search",
    "full-exact": "sad and ncc, exact crops 16-40 on a 192^2 ref; runs only the dense "
                  "full-search baselines, bypasses projection and the pyramid",
    "perturbed": "all 7 algos, crops 16-40 on 192^2 with noise 10/30 or +40 brightness; "
                 "same layers as above under loose bounds; the only hit_rate < 1",
    "cli-oneshot": "python -m vecmatch match per request, PGM or PPM 512^2 ref, 1 in 5 "
                   "with --map; the only one running interpreter start, image and cli",
}

RUN_SECONDS = 25


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
