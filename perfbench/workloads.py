"""Seeded inputs for the benchmark workloads.

A workload is built from ``(name, seed)`` alone: the same pair gives the same
references, templates, perturbations and request order, and the program under
test sees only the generated images (or the files written from them).

Requests come in blocks of a few seconds' work. A block holds every request
of its instances in a seeded shuffled order, and a run ends only on a block
boundary, so the mix of algorithms, perturbations and formats in a run does
not depend on where the clock stopped. Every block has the same template
shapes: the points of a rank-1 (Fibonacci-like) lattice, so that heights and
widths each take every one of K equal strata of their range once and the
pairs spread evenly over the range's square. The seed and the block pick the
reference texture, the crop positions, the perturbation noise and the request
order. A matcher's cost depends on the shapes alone (pyramid depth jumps at
powers of two), so every block does the same work, whatever the seed, and
every template is distinct.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from vecmatch import ColorImage, GrayImage, Rect, crop, encode_pgm, encode_ppm, to_gray

ALL_ALGOS = ("vec-ssd", "vec-sad", "vec-euclid", "sad", "ncc", "sadp", "nccp")
DENSE_ALGOS = ("vec-ssd", "vec-sad", "vec-euclid", "sad", "ncc")
PERTURBATIONS = ("noise10", "noise30", "bright40")

# One CLI block: 4 vec-ssd (2 of them with --map, so 1 request in 5 writes a
# map), 3 vec-sad and 3 sadp; 5 read a PGM reference and 5 a PPM one. The
# algorithms alternate because the i-th request gets the i-th height stratum.
CLI_BLOCK = (
    ("vec-ssd", True), ("vec-sad", False), ("sadp", False),
    ("vec-ssd", False), ("vec-sad", False), ("sadp", False),
    ("vec-ssd", True), ("vec-sad", False), ("sadp", False),
    ("vec-ssd", False),
)


@dataclass(frozen=True)
class Spec:
    ref_side: int
    sides: tuple[int, int]
    block: tuple[tuple[str, ...], ...]  # the algorithms run on each instance of a block
    perturbations: tuple[str, ...]
    blocks: int  # deck length; a run that gets through it starts over
    cli: bool = False

    @property
    def algos(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(a for algos in self.block for a in algos))


SCAN_ALGOS = ("vec-ssd", "vec-sad", "vec-euclid", "sadp", "nccp")
# A block is 3-5 s of work on a 2-vCPU Xeon, so a 25 s run completes 5-8 of
# them and reports its throughput as the median over blocks.
SPECS = {
    "scan-512": Spec(512, (16, 200), (SCAN_ALGOS,) * 18, ("none",), 20),
    # sad on every crop and ncc on every other one, so that neither the
    # median nor the 90th percentile falls in the gap between the two.
    "full-exact": Spec(192, (16, 40), (("sad", "ncc"), ("sad",)) * 20, ("none",), 16),
    "perturbed": Spec(192, (16, 40), (ALL_ALGOS,) * 21, PERTURBATIONS, 30),
    "cli-oneshot": Spec(512, (16, 100), tuple((algo,) for algo, _ in CLI_BLOCK), ("none",),
                        30, cli=True),
}
WORKLOADS = tuple(SPECS)


@dataclass(frozen=True)
class Instance:
    """One template and where it truly lies in the reference."""

    template: GrayImage
    top: int
    left: int
    perturbation: str

    @property
    def height(self) -> int:
        return self.template.height

    @property
    def width(self) -> int:
        return self.template.width


@dataclass(frozen=True)
class Request:
    instance: int
    algo: str
    reference_format: str = "array"  # "pgm" or "ppm" for CLI requests
    map: bool = False


@dataclass
class Workload:
    name: str
    spec: Spec
    reference: GrayImage  # the gray image every matcher sees
    color: ColorImage | None
    instances: list[Instance]
    blocks: list[list[Request]]
    warm: int  # instance for the warm-up: a square exact crop of middle side

    def warm_up(self) -> list[Request]:
        """One request per algorithm, of the same size whatever the seed."""
        fmt = "ppm" if self.spec.cli else "array"
        return [Request(self.warm, algo, fmt) for algo in self.spec.algos]

    def write_files(self, directory: Path) -> None:
        """Write the CLI inputs: both reference formats and one PGM per template."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "ref.pgm").write_bytes(encode_pgm(self.reference))
        (directory / "ref.ppm").write_bytes(encode_ppm(self.color))
        for i, inst in enumerate(self.instances):
            (directory / f"t{i}.pgm").write_bytes(encode_pgm(inst.template))


def textured(rng: np.random.Generator, height: int, width: int, blur: int = 8) -> np.ndarray:
    """Box-blurred noise stretched to 0..255: locally distinctive but smooth
    enough that the coarse pyramid levels keep their structure."""
    noise = rng.random((height + blur - 1, width + blur - 1))
    smooth = sliding_window_view(noise, blur, axis=0).mean(axis=-1)
    smooth = sliding_window_view(smooth, blur, axis=1).mean(axis=-1)
    smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min()) * 255
    return np.floor(smooth + 0.5).astype(np.uint8)


def perturb(rng: np.random.Generator, t: GrayImage, kind: str) -> GrayImage:
    if kind == "none":
        return t
    px = t.pixels.astype(np.float64)
    if kind == "bright40":
        px = px + 40
    else:
        sigma = {"noise10": 10.0, "noise30": 30.0}[kind]
        px = np.floor(px + rng.normal(0.0, sigma, px.shape) + 0.5)
    return GrayImage(np.clip(px, 0, 255).astype(np.uint8))


def lattice_shapes(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """``count`` (height, width) pairs: point j takes height stratum j and
    width stratum j*c mod count of ``count`` equal strata of ``[lo, hi]``,
    with c the coprime nearest count/golden ratio (the Fibonacci lattice when
    count is a Fibonacci number)."""
    golden = (1 + math.sqrt(5)) / 2
    c = min((c for c in range(1, count) if math.gcd(c, count) == 1),
            key=lambda c: abs(c - count / golden))
    side = [lo + int((hi - lo + 1) * (j + 0.5) / count) for j in range(count)]
    return [(side[j], side[j * c % count]) for j in range(count)]


def build(name: str, seed: int) -> Workload:
    spec = SPECS[name]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    side = spec.ref_side
    if spec.cli:
        color = ColorImage(np.stack([textured(rng, side, side) for _ in range(3)], axis=-1))
        reference = to_gray(color, "luma")
    else:
        color = None
        reference = GrayImage(textured(rng, side, side))

    shapes = lattice_shapes(*spec.sides, len(spec.block))
    instances: list[Instance] = []
    blocks: list[list[Request]] = []
    for _ in range(spec.blocks):
        block: list[Request] = []
        kinds = rng.permutation(np.resize(spec.perturbations, len(spec.block)))
        for i, (kind, algos) in enumerate(zip(kinds, spec.block)):
            k = len(instances)
            m, n = shapes[i]
            top = int(rng.integers(0, side - m + 1))
            left = int(rng.integers(0, side - n + 1))
            t = perturb(rng, crop(reference, Rect(top, left, m, n)), str(kind))
            instances.append(Instance(t, top, left, str(kind)))
            if not spec.cli:
                block.extend(Request(k, algo) for algo in algos)
        if spec.cli:
            first = len(instances) - len(spec.block)
            formats = rng.permutation(["pgm", "ppm"] * (len(CLI_BLOCK) // 2))
            block = [
                Request(first + i, algo, str(fmt), with_map)
                for i, ((algo, with_map), fmt) in enumerate(zip(CLI_BLOCK, formats))
            ]
        blocks.append([block[i] for i in rng.permutation(len(block))])
    mid = sum(spec.sides) // 2
    top, left = (int(x) for x in rng.integers(0, side - mid + 1, 2))
    instances.append(Instance(crop(reference, Rect(top, left, mid, mid)), top, left, "none"))
    return Workload(name, spec, reference, color, instances, blocks, len(instances) - 1)


def _shares(values) -> dict[str, float]:
    counts = Counter(values)
    total = sum(counts.values())
    return {key: round(counts[key] / total, 4) for key in sorted(counts)}


def _spread(values) -> dict[str, float]:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return {"min": min(values), "p10": q[0], "p50": statistics.median(values),
            "p90": q[-1], "max": max(values)}


def describe(wl: Workload, requests: list[Request]) -> dict:
    """Input properties of the requests a run made, for later issues to cite."""
    insts = [wl.instances[r.instance] for r in requests]
    p, q = wl.reference.height, wl.reference.width
    on_border = [
        i.top == 0 or i.left == 0 or i.top == p - i.height or i.left == q - i.width
        for i in insts
    ]
    return {
        "requests": len(requests),
        "reference": f"{p}x{q}",
        "template_height": _spread([i.height for i in insts]),
        "template_width": _spread([i.width for i in insts]),
        "aspect_w_over_h": {k: round(v, 4) for k, v in
                            _spread([i.width / i.height for i in insts]).items()},
        "border_share": round(sum(on_border) / len(insts), 4),
        "perturbation": _shares(i.perturbation for i in insts),
        "algorithm": _shares(r.algo for r in requests),
        "reference_format": _shares(r.reference_format for r in requests),
        "map_share": round(sum(r.map for r in requests) / len(requests), 4),
    }
