"""Drive one workload: set up, run the closed request loop, check, measure.

One client in one process sends the next request when the previous one has
returned; there are no extra threads. Library requests call
``vecmatch.run_algorithm``; CLI requests spawn ``python -m vecmatch match``,
or, in the traced run, call ``vecmatch.cli.main`` in this process.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import vecmatch
from vecmatch import cli, matchers

from .check import Outcome, check_instances, check_map, check_outcome, spot_check
from .metrics import END_TO_END, PER_LAYER, SETUPS
from .tracing import Tracer
from .workloads import ALL_ALGOS, Request, Workload, build, describe

PROBES = 5
CLI_TIMEOUT_S = 120
MATCHER_SPANS = ("matchers.match_projected", "matchers.match_full_sad",
                 "matchers.match_full_ncc", "matchers.match_pyramid")


class CliError(RuntimeError):
    """The CLI exited with a nonzero status."""


def parse_line(text: str) -> tuple[int, int, float]:
    """``<row> <col> <score> <elapsed_ms>``, the CLI's one output line."""
    fields = text.split()
    if len(fields) != 4:
        raise ValueError(f"unparseable CLI output {text!r}")
    float(fields[3])
    return int(fields[0]), int(fields[1]), float(fields[2])


class Client:
    """Turns a request into one call of the program under test."""

    def __init__(self, wl: Workload, work: Path, src: Path) -> None:
        self.wl = wl
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        if wl.spec.cli:
            wl.write_files(work)

    def library(self, req: Request, map_path: Path | None):
        res = vecmatch.run_algorithm(req.algo, self.wl.reference,
                                     self.wl.instances[req.instance].template)
        return res.row, res.col, res.score

    def argv(self, req: Request, map_path: Path | None) -> list[str]:
        argv = ["match", "--reference", str(self.work / f"ref.{req.reference_format}"),
                "--template", str(self.work / f"t{req.instance}.pgm"), "--algo", req.algo]
        return argv + ["--map", str(map_path)] if map_path else argv

    def spawn(self, req: Request, map_path: Path | None):
        proc = subprocess.run(
            [sys.executable, "-m", "vecmatch", *self.argv(req, map_path)],
            env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise CliError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return parse_line(proc.stdout)

    def in_process(self, req: Request, map_path: Path | None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(self.argv(req, map_path))
        if status != 0:
            raise CliError(f"exit {status}: {err.getvalue().strip()}")
        return parse_line(out.getvalue())

    def probe(self, code: str) -> float:
        """Milliseconds to spawn ``python -c code`` and wait for it."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                       timeout=CLI_TIMEOUT_S)
        return (time.perf_counter() - t0) * 1e3


def drive(blocks, call, work: Path, seconds: float | None = None,
          tracer: Tracer | None = None, span: str = "request", tag: str = ""):
    """Send every request of each block in turn; stop after the block during
    which ``seconds`` ran out. Returns the outcomes, the loop's wall time in
    seconds, the blocks it completed and each one's wall time."""
    outcomes: list[Outcome] = []
    done = []
    block_s = []
    start = time.perf_counter()
    for block in blocks:
        block_start = time.perf_counter()
        for req in block:
            map_path = work / f"map-{tag}{len(outcomes)}.csv" if req.map else None
            out = Outcome(req, 0, map_path=map_path)
            scope = contextlib.nullcontext()
            if tracer is not None:
                tracer.request = len(outcomes)
                scope = tracer.span(span, {"algo": req.algo, "map": req.map})
            t0 = time.perf_counter_ns()
            try:
                with scope:
                    out.row, out.col, out.score = call(req, map_path)
            except Exception as exc:  # a failed request is counted, never dropped
                out.error = f"{type(exc).__name__}: {exc}"
            out.ns = time.perf_counter_ns() - t0
            outcomes.append(out)
        done.append(block)
        block_s.append(time.perf_counter() - block_start)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return outcomes, time.perf_counter() - start, done, block_s


def _cells(s, t, *args, **kwargs):
    return {"cells": (s.height - t.height + 1) * (s.width - t.width + 1)
            * t.height * t.width}


def _levels(s, t, base="sad", levels=None, radius=2):
    return {"levels": levels if levels is not None else matchers.auto_pyramid_levels(t)}


def _bytes(data, *args, **kwargs):
    return {"bytes": len(data)}


def hook(tracer: Tracer) -> None:
    """Wrap the names one layer looks up from another."""
    for attr, layer, describe_call in (
        ("build_column_sum_table", "projection", None),
        ("project_template", "projection", None),
        ("match_projected", "matchers", None),
        ("match_full_sad", "matchers", _cells),
        ("match_full_ncc", "matchers", _cells),
        ("match_pyramid", "matchers", _levels),
    ):
        tracer.wrap(matchers, attr, f"{layer}.{attr}", describe_call)
    for attr, layer, describe_call in (
        ("decode_pnm", "image", _bytes),
        ("to_gray", "image", None),
        ("run_algorithm", "matchers", None),
        ("score_map_only", "matchers", None),
    ):
        tracer.wrap(cli, attr, f"{layer}.{attr}", describe_call)


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def hit(wl: Workload, out: Outcome) -> bool:
    inst = wl.instances[out.request.instance]
    return not out.failed and (out.row, out.col) == (inst.top, inst.left)


def check_all(wl: Workload, phases) -> None:
    for outcomes in phases:
        for out in outcomes:
            check_outcome(wl, out)
            if out.map_path is not None:
                if out.error is None:
                    check_map(wl, out)
                out.map_path.unlink(missing_ok=True)
        check_instances(outcomes)


def typical_latencies(wl: Workload, outcomes) -> list[float]:
    """Each request slot's median latency over the run's blocks, in ms.

    A slot is a place in the block: one template shape and algorithm, which
    every block repeats with a new template. The latency percentiles are
    taken over these medians, so they describe the request mix without the
    host's slow spells."""
    by_slot: dict[tuple[int, str], list[float]] = {}
    for o in outcomes:
        slot = (o.request.instance % len(wl.spec.block), o.request.algo)
        by_slot.setdefault(slot, []).append(o.ns / 1e6)
    return [statistics.median(times) for times in by_slot.values()]


def end_to_end(wl, outcomes, blocks, block_s, peak_rss_kib, setup_times) -> dict:
    n = len(outcomes)
    lat = typical_latencies(wl, outcomes)
    failed = sum(o.failed for o in outcomes)
    # Every block does the same work, so the median block rate is the run's
    # throughput with the host's slow spells left out.
    rates = [len(block) / s for block, s in zip(blocks, block_s)]
    values = {
        "requests_per_s": (statistics.median(rates), len(rates)),
        "latency_p50_ms": (percentile(lat, 50), n),
        "latency_p90_ms": (percentile(lat, 90), n),
        "hit_rate": (sum(hit(wl, o) for o in outcomes) / n, n),
        "ok_frac": (1 - failed / n, n),
        "peak_rss_mib": (peak_rss_kib / 1024, 1),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
    }
    return {m.name: (*values[m.name], m.unit) for m in END_TO_END}


def per_layer(wl, tracer: Tracer, outcomes, untraced_rps, traced_rps, cli_extra) -> dict:
    n = len(outcomes)
    spans = tracer.spans
    values: dict[str, tuple[float, int]] = {}

    def busy(name):
        calls, busy_ns, self_ns = tracer.totals(name)
        return calls, busy_ns / 1e6, self_ns / 1e6

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    calls, ms, _ = busy("projection.build_column_sum_table")
    values["projection.build_column_sum_table.calls"] = (calls / n, calls)
    values["projection.build_column_sum_table.busy_ms"] = (ms / n, calls)
    calls, ms, _ = busy("projection.project_template")
    values["projection.project_template.busy_ms"] = (ms / n, calls)
    calls, _, own = busy("matchers.match_projected")
    values["matchers.match_projected.self_ms"] = (own / n, calls)
    for short, name in (("sad", "matchers.match_full_sad"), ("ncc", "matchers.match_full_ncc")):
        calls, ms, _ = busy(name)
        values[f"{name}.busy_ms"] = (ms / n, calls)
        values[f"{name}.mcells_per_s"] = (attr_sum(name, "cells") / ms / 1e3 if ms else 0.0,
                                          calls)
    calls, ms, _ = busy("matchers.match_pyramid")
    values["matchers.match_pyramid.busy_ms"] = (ms / n, calls)
    values["matchers.match_pyramid.levels"] = (
        attr_sum("matchers.match_pyramid", "levels") / calls if calls else 0.0, calls)

    # Time in the matcher proper: the whole request in the library, the
    # run_algorithm call inside cli.main for the CLI.
    matcher_span = "matchers.run_algorithm" if wl.spec.cli else "request"
    ms_by_request = {s.request: s.ns / 1e6 for s in spans if s.name == matcher_span}
    for algo in ALL_ALGOS:
        mine = [o for o in outcomes if o.request.algo == algo]
        times = [ms_by_request[i] for i, o in enumerate(outcomes)
                 if o.request.algo == algo and i in ms_by_request]
        values[f"matchers.{algo}.calls"] = (len(mine) / n, len(mine))
        values[f"matchers.{algo}.p50_ms"] = (percentile(times, 50) if times else 0.0,
                                             len(times))
        values[f"matchers.{algo}.hit_rate"] = (
            sum(hit(wl, o) for o in mine) / len(mine) if mine else 0.0, len(mine))

    calls, _, _ = busy("matchers.score_map_only")
    values["matchers.score_map_only.calls"] = (calls / n, calls)
    map_requests = {i for i, o in enumerate(outcomes) if o.request.map}
    passes = sum(1 for s in spans if s.name in MATCHER_SPANS and s.request in map_requests)
    values["matchers.map_request.passes"] = (
        passes / len(map_requests) if map_requests else 0.0, len(map_requests))
    calls, ms, _ = busy("image.decode_pnm")
    values["image.decode_pnm.busy_ms"] = (ms / n, calls)
    values["image.decode_pnm.mb_per_s"] = (
        attr_sum("image.decode_pnm", "bytes") / ms / 1e3 if ms else 0.0, calls)
    calls, ms, _ = busy("image.to_gray")
    values["image.to_gray.busy_ms"] = (ms / n, calls)
    calls, _, own = busy("cli.main")
    values["cli.main.self_ms"] = (own / n, calls)
    for name in ("cli.interp_ms", "cli.import_ms", "cli.main.p50_ms", "cli.map_bytes",
                 "cli.process_overhead_ms"):
        values[name] = cli_extra.get(name, (0.0, 0))
    values["trace.overhead_frac"] = (1 - traced_rps / untraced_rps, n)
    return {m.name: (*values[m.name], m.unit) for m in PER_LAYER}


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, src: Path) -> dict:
    """Set up ``name`` from ``seed``, run it for ``seconds`` and check every request."""
    setup_times = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        wl = build(name, seed)
        client = Client(wl, work / f"setup{k}", src)
        call = client.spawn if wl.spec.cli else client.library
        drive([wl.warm_up()], call, client.work)
        setup_times.append(time.perf_counter() - t0)

    deck = itertools.cycle(wl.blocks)
    who = resource.RUSAGE_CHILDREN if wl.spec.cli else resource.RUSAGE_SELF
    if not trace:
        outcomes, _, done, block_s = drive(deck, call, client.work, seconds)
        peak = resource.getrusage(who).ru_maxrss
        phases = [outcomes]
    else:
        tracer = Tracer()
        cli_extra = {}
        if wl.spec.cli:
            spawned, _, done, _ = drive(deck, call, client.work, seconds / 2, tag="a")
            outcomes, wall, _, _ = drive(done, client.in_process, client.work, tag="b")
            with tracer:
                hook(tracer)
                traced, traced_wall, _, _ = drive(done, client.in_process, client.work,
                                                  tracer=tracer, span="cli.main", tag="c")
            interp = [client.probe("pass") for _ in range(PROBES)]
            imported = [client.probe("import vecmatch") for _ in range(PROBES)]
            main_p50 = percentile([o.ns / 1e6 for o in outcomes], 50)
            map_sizes = [o.map_path.stat().st_size for o in spawned
                         if o.map_path is not None and o.map_path.exists()]
            cli_extra = {
                "cli.interp_ms": (statistics.median(interp), PROBES),
                "cli.import_ms": (statistics.median(imported) - statistics.median(interp),
                                  PROBES),
                "cli.main.p50_ms": (main_p50, len(outcomes)),
                "cli.map_bytes": (statistics.mean(map_sizes) if map_sizes else 0.0,
                                  len(map_sizes)),
                "cli.process_overhead_ms": (
                    percentile([o.ns / 1e6 for o in spawned], 50) - main_p50, len(spawned)),
            }
            phases = [spawned, outcomes, traced]
        else:
            outcomes, wall, done, _ = drive(deck, call, client.work, seconds / 2)
            with tracer:
                hook(tracer)
                traced, traced_wall, _, _ = drive(done, call, client.work, tracer=tracer)
            phases = [outcomes, traced]

    check_all(wl, phases)
    problems = spot_check(seed, wl.spec.algos, wl.spec.perturbations)
    everything = [o for phase in phases for o in phase]
    record = {
        "inputs": describe(wl, [o.request for o in phases[0]]),
        "attempted": len(everything),
        "failed": sum(o.failed for o in everything),
        "spot_check_problems": problems,
        "request_problems": [
            f"{o.request}: {o.error or '; '.join(o.problems)}"
            for o in everything if o.failed
        ][:50],
    }
    if trace:
        record["metrics"] = per_layer(wl, tracer, traced, len(outcomes) / wall,
                                      len(traced) / traced_wall, cli_extra)
        record["missing_hooks"] = tracer.missing
        record["tracer"] = tracer
    else:
        record["metrics"] = end_to_end(wl, outcomes, done, block_s, peak, setup_times)
    return record
