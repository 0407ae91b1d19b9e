"""Benchmark harness: crop templates of varying sizes from a reference, run
the matching algorithms, record correctness, median wall time and peak
memory, emit CSV."""

from __future__ import annotations

import csv
import io
import statistics
import tracemalloc
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence, get_type_hints

from .cli import _load_gray
from .image import GrayImage, Rect, crop
from .matchers import ALGORITHMS, algorithm_entry, run_algorithm

DEFAULT_SIZES = (25, 50, 100, 150, 200)


@dataclass(frozen=True)
class BenchRecord:
    reference_id: str
    algorithm: str
    template_h: int
    template_w: int
    true_row: int
    true_col: int
    found_row: int
    found_col: int
    correct: bool
    score: float
    elapsed_ns: int
    repetitions: int
    peak_bytes: int


# The CSV columns are BenchRecord's fields, in order, each cell written and
# read by its field's type: a bool as true/false, and the score as
# repr(float) for a float, else as an integer.
CSV_HEADER = tuple(f.name for f in fields(BenchRecord))
_CELL_TYPES = tuple(get_type_hints(BenchRecord)[name] for name in CSV_HEADER)
_WRITE = {bool: lambda v: "true" if v else "false",
          float: lambda v: repr(float(v)) if isinstance(v, float) else v}
_READ = {bool: lambda x: x == "true",
         float: lambda x: float(x) if "." in x or "e" in x else int(x)}


@dataclass(frozen=True)
class BenchPlan:
    """One benchmark run: which reference, template sizes, positions, algorithms.

    `positions` is "centered", "edge" (crop at the 0,0 corner), or an explicit
    list of (row, col) pairs, one per size.
    """

    reference: str | Path
    sizes: Sequence[int] = DEFAULT_SIZES
    positions: str | Sequence[tuple[int, int]] = "centered"
    algorithms: Sequence[str] = ALGORITHMS
    repetitions: int = 3
    color_mode: str = "luma"


def _resolve(plan: BenchPlan, image: GrayImage) -> list[tuple[int, int, int, int]]:
    """Clip sizes to the image and pair each with its crop position."""
    out = []
    sizes = [min(sz, image.height, image.width) for sz in plan.sizes]
    if isinstance(plan.positions, str):
        if plan.positions == "centered":
            pos = [((image.height - sz) // 2, (image.width - sz) // 2) for sz in sizes]
        elif plan.positions == "edge":
            pos = [(0, 0)] * len(sizes)
        else:
            raise ValueError(f"unknown positions value {plan.positions!r}")
    else:
        pos = list(plan.positions)
        if len(pos) != len(sizes):
            raise ValueError(
                f"{len(pos)} positions given for {len(sizes)} template sizes"
            )
    for sz, (r, c) in zip(sizes, pos):
        out.append((sz, sz, r, c))
    return out


def peak_bytes(name: str, image: GrayImage, template: GrayImage) -> int:
    """Most bytes one run_algorithm call holds at once beyond what was
    allocated before it, as tracemalloc sees them (numpy buffers included)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        run_algorithm(name, image, template)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def run_plan(plan: BenchPlan) -> list[BenchRecord]:
    """One record per (size x algorithm); timing is the median of repetitions
    of the full match call, preprocessing (tables, pyramids) included, and
    peak_bytes comes from one more, untimed call."""
    if plan.repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    for name in plan.algorithms:
        algorithm_entry(name)
    image = _load_gray(plan.reference, plan.color_mode)
    ref_id = Path(plan.reference).stem
    records = []
    for h, w, top, left in _resolve(plan, image):
        template = crop(image, Rect(top=top, left=left, height=h, width=w))
        for name in plan.algorithms:
            timings = []
            for _ in range(plan.repetitions):
                result = run_algorithm(name, image, template)
                timings.append(result.elapsed_ns)
            records.append(
                BenchRecord(
                    reference_id=ref_id,
                    algorithm=name,
                    template_h=h,
                    template_w=w,
                    true_row=top,
                    true_col=left,
                    found_row=result.row,
                    found_col=result.col,
                    correct=(result.row, result.col) == (top, left),
                    score=result.score,
                    elapsed_ns=int(statistics.median(timings)),
                    repetitions=plan.repetitions,
                    peak_bytes=peak_bytes(name, image, template),
                )
            )
    return records


def emit_csv(records: Sequence[BenchRecord]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([_WRITE.get(kind, str)(getattr(r, name))
                         for name, kind in zip(CSV_HEADER, _CELL_TYPES)])
    return buf.getvalue().encode("utf-8")


def parse_csv(data: bytes) -> list[BenchRecord]:
    """Inverse of emit_csv; round-trips every record field-for-field."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    return [BenchRecord(*(_READ.get(kind, kind)(x) for kind, x in zip(_CELL_TYPES, row)))
            for row in rows[1:]]
