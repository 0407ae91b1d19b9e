"""Output checks: every request, cross-algorithm invariants, oracle spot checks.

Scores are recomputed at the reported and at the true offset with the
brute-force oracles of ``vecmatch.oracle``, which are never timed. Integer
scores must match exactly; correlations and Euclidean distances to a relative
1e-9, the tolerance the acceptance tests use.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vecmatch import GrayImage, Rect, VectorMetric, crop, run_algorithm, score_map_only
from vecmatch.oracle import naive_ncc_map, naive_projected_map, naive_sad_map

from .workloads import DENSE_ALGOS, Request, Workload, perturb, textured

TOL = 1e-9
VEC_METRIC = {
    "vec-ssd": VectorMetric.SSD,
    "vec-sad": VectorMetric.SAD,
    "vec-euclid": VectorMetric.EUCLIDEAN,
}
MAXIMIZED = ("ncc", "nccp")
FLOAT_SCORED = ("vec-euclid", "ncc", "nccp")


@dataclass
class Outcome:
    """What one request returned, how long it took, and whether it passed."""

    request: Request
    ns: int
    row: int | None = None
    col: int | None = None
    score: float | None = None
    error: str | None = None
    map_path: Path | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def oracle_map(algo: str, s: GrayImage, t: GrayImage):
    if algo in VEC_METRIC:
        return naive_projected_map(s, t, VEC_METRIC[algo])
    if algo in ("sad", "sadp"):
        return naive_sad_map(s, t)
    return naive_ncc_map(s, t)


def score_at(algo: str, s: GrayImage, t: GrayImage, row: int, col: int) -> float:
    """Oracle score of the window at (row, col); NaN for a degenerate NCC window."""
    window = crop(s, Rect(row, col, t.height, t.width))
    return float(oracle_map(algo, window, t).scores[0, 0])


def same_score(algo: str, a: float, b: float) -> bool:
    if algo in FLOAT_SCORED:
        return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)
    return a == b


def check_outcome(wl: Workload, out: Outcome) -> None:
    """Record in ``out.problems`` every way its result is wrong."""
    if out.error is not None:
        return
    algo = out.request.algo
    inst = wl.instances[out.request.instance]
    s, t = wl.reference, inst.template
    if not (0 <= out.row <= s.height - t.height and 0 <= out.col <= s.width - t.width):
        out.problems.append(f"offset ({out.row}, {out.col}) out of range")
        return
    found = score_at(algo, s, t, out.row, out.col)
    if not same_score(algo, out.score, found):
        out.problems.append(f"score {out.score!r} but the oracle gives {found!r} there")
    if algo not in DENSE_ALGOS:
        return
    truth = score_at(algo, s, t, inst.top, inst.left)
    beaten = out.score < truth - TOL if algo in MAXIMIZED else out.score > truth + TOL
    if beaten:
        out.problems.append(f"score {out.score!r} is worse than {truth!r} at the true offset")
    if inst.perturbation == "none":
        exact = 1.0 if algo == "ncc" else 0.0
        if not math.isclose(out.score, exact, abs_tol=TOL):
            out.problems.append(f"exact crop scored {out.score!r}, not {exact}")


# (a, b, holds(a_outcome, b_outcome)) for every pair of algorithms a workload runs.
INVARIANTS = (
    ("vec-ssd", "vec-euclid", lambda a, b: (a.row, a.col) == (b.row, b.col)),
    ("vec-sad", "sad", lambda a, b: a.score <= b.score),
    ("sad", "sadp", lambda a, b: a.score <= b.score),
    ("nccp", "ncc", lambda a, b: a.score <= b.score + TOL),
)


def check_instances(outcomes: list[Outcome]) -> None:
    """Cross-algorithm invariants on every instance; a break fails both sides."""
    by_instance: dict[int, dict[str, list[Outcome]]] = defaultdict(lambda: defaultdict(list))
    for out in outcomes:
        if out.error is None:
            by_instance[out.request.instance][out.request.algo].append(out)
    for algos in by_instance.values():
        for a, b, holds in INVARIANTS:
            for oa in algos.get(a, ()):
                for ob in algos.get(b, ()):
                    if not holds(oa, ob):
                        msg = f"invariant {a} vs {b} broken"
                        oa.problems.append(msg)
                        ob.problems.append(msg)


def read_map(path: Path) -> np.ndarray:
    rows = path.read_text(encoding="utf-8").splitlines()
    return np.array([line.split(",") for line in rows], dtype=np.float64)


def check_map(wl: Workload, out: Outcome) -> None:
    """A --map grid has one cell per offset, and its argmin is the printed offset."""
    if out.error is not None:
        return
    inst = wl.instances[out.request.instance]
    s = wl.reference
    grid = read_map(out.map_path)
    shape = (s.height - inst.height + 1, s.width - inst.width + 1)
    if grid.shape != shape:
        out.problems.append(f"map shape {grid.shape}, expected {shape}")
        return
    flat = int(np.argmin(grid))
    if divmod(flat, shape[1]) != (out.row, out.col) or grid.flat[flat] != out.score:
        out.problems.append(f"map argmin {divmod(flat, shape[1])} disagrees with the line")


def spot_check(seed: int, algos, perturbations, count: int = 3) -> list[str]:
    """Small seeded instances, untimed, compared with the oracles map for map."""
    rng = np.random.default_rng([seed, 99])
    problems = []
    made = 0
    while made < count:
        p, q = (int(x) for x in rng.integers(12, 29, 2))
        m, n = (int(x) for x in rng.integers(3, 8, 2))
        s = GrayImage(textured(rng, p, q, blur=3))
        top, left = int(rng.integers(0, p - m + 1)), int(rng.integers(0, q - n + 1))
        kind = str(perturbations[made % len(perturbations)])
        t = perturb(rng, crop(s, Rect(top, left, m, n)), kind)
        if int(t.pixels.min()) == int(t.pixels.max()):
            continue  # NCC is undefined on a flat template; draw again
        made += 1
        for algo in algos:
            want = oracle_map(algo, s, t)
            got = run_algorithm(algo, s, t)
            label = f"spot {made} {algo} {p}x{q}/{m}x{n}"
            if algo in DENSE_ALGOS:
                fast = score_map_only(s, t, algo)
                if algo in FLOAT_SCORED:
                    ok = (fast.valid is None or np.array_equal(fast.valid, want.valid)) and (
                        np.allclose(fast.scores, want.scores, rtol=TOL, atol=0, equal_nan=True))
                else:
                    ok = np.array_equal(fast.scores, want.scores)
                if not ok:
                    problems.append(f"{label}: score map differs from the oracle")
            scores = want.scores
            if algo in MAXIMIZED:
                best = float(np.nanmax(scores))
            else:
                best = float(scores.min())
            at = float(scores[got.row, got.col])
            if algo in DENSE_ALGOS and not same_score(algo, at, best):
                problems.append(f"{label}: picked {at!r}, optimum is {best!r}")
            if algo in DENSE_ALGOS and algo not in FLOAT_SCORED:
                first = divmod(int(np.argmin(scores)), scores.shape[1])
                if (got.row, got.col) != first:
                    problems.append(f"{label}: tie not broken to the first offset")
            if not same_score(algo, got.score, at):
                problems.append(f"{label}: reported {got.score!r}, oracle {at!r}")
    return problems
