"""Run a vecmatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-512 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a source checkout; it imports vecmatch from ``src/``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
requests untraced and then traced, and reports the per-layer metrics. Every
request passes through the output check. The report lists each metric with
its unit and sample count; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment, input properties, check problems) and, when
tracing, every span are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One client in one process: BLAS gets one thread too, so that a run does not
# measure how the host schedules a second one. Set before numpy is imported;
# the spawned CLI processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, if it can be found."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def speed_probe_ms() -> float:
    """Median time of a fixed numpy kernel. The load average misses a host
    that slows down every process on it; this probe shows it, so that a slow
    run can be told apart from a slower program."""
    import numpy

    a = numpy.arange(1 << 20, dtype=numpy.int64) % 251
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        int(numpy.cumsum(a)[-1]) + int(a @ a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def run_all(args, workloads) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    if not (SRC / "vecmatch" / "__init__.py").is_file():
        print(f"perfbench: no vecmatch sources in {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import metrics, runner
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    env["speed_probe_ms_before"] = speed_probe_ms()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        record = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            work, SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env["speed_probe_ms_after"] = speed_probe_ms()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.jsonl")
    correct = record["failed"] == 0 and not record["spot_check_problems"]
    notes = {m.name: m for m in metrics.PER_LAYER}

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    print("inputs " + json.dumps(record["inputs"]))
    for name, (value, count, unit) in record["metrics"].items():
        line = f"{name:<44} {value:>14.6g} {unit:<8} n={count}"
        note = notes.get(name)
        if note is not None and args.workload in note.on:
            line += f"  [should move {note.moves} here]"
        elif note is not None and args.workload in note.flat_on:
            line += "  [should stay flat here]"
        print(line)
    if args.trace and args.workload == "cli-oneshot":
        v = {name: value for name, (value, _, _) in record["metrics"].items()}
        overhead, main_p50 = v["cli.process_overhead_ms"], v["cli.main.p50_ms"]
        inside = v["image.decode_pnm.busy_ms"] + v["image.to_gray.busy_ms"]
        print(f"split of the spawned latency_p50_ms {overhead + main_p50:.1f} ms: "
              f"process overhead {overhead:.1f} (alone, a bare interpreter takes "
              f"{v['cli.interp_ms']:.1f} and import vecmatch {v['cli.import_ms']:.1f} more)"
              f" + in-process cli.main p50 {main_p50:.1f} (mean per request: decode and "
              f"to_gray {inside:.1f}, main self {v['cli.main.self_ms']:.1f}, matching the rest)")
    if not args.trace:
        print(f"{'failed_frac':<44} {record['failed'] / record['attempted']:>14.6g} "
              f"{'frac':<8} n={record['attempted']}")
    for problem in record["spot_check_problems"] + record["request_problems"]:
        print(f"check: {problem}")

    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, **record,
        "metrics": {k: {"value": v, "n": n, "unit": u}
                    for k, (v, n, u) in record["metrics"].items()},
    }, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, _, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
