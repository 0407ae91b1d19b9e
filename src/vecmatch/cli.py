"""Command-line front end: match, crop, score-map export, bench."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .image import (
    ColorImage,
    GRAY_MODES,
    GrayImage,
    PnmError,
    Rect,
    crop,
    decode_pnm,
    encode_pgm,
    encode_ppm,
    to_gray,
)
from .matchers import ALGORITHMS, match_dense, run_algorithm
# score_map_only is unused here but stays importable from this module: the
# benchmark in perfbench/ traces the CLI by wrapping these names.
from .matchers import score_map_only  # noqa: F401


def _load_gray(path: str | Path, color_mode: str) -> GrayImage:
    img = decode_pnm(Path(path).read_bytes())
    if isinstance(img, ColorImage):
        img = to_gray(img, color_mode)
    return img


def _parse_positions(text: str):
    # text without a ':' is a keyword, which the bench plan resolves
    if ":" not in text:
        return text
    pairs = []
    for chunk in text.split(","):
        r, _, c = chunk.partition(":")
        pairs.append((int(r), int(c)))
    return pairs


def _cmd_match(args) -> int:
    s = _load_gray(args.reference, args.color_mode)
    t = _load_gray(args.template, args.color_mode)
    if args.map:
        result, scores = match_dense(args.algo, s, t)
        with open(args.map, "w", encoding="utf-8") as f:
            for row in np.asarray(scores, dtype=np.float64):
                f.write(",".join(repr(v) for v in row.tolist()) + "\n")
    else:
        result = run_algorithm(args.algo, s, t)
    score = str(result.score) if isinstance(result.score, int) else f"{result.score:.6f}"
    print(f"{result.row} {result.col} {score} {result.elapsed_ms:.3f}")
    return 0


def _cmd_crop(args) -> int:
    # the crop keeps the input's format, so a PPM crop stays exact under
    # either gray mode of `match`, whose conversion works pixel by pixel
    img = decode_pnm(Path(args.input).read_bytes())
    rect = Rect(top=args.top, left=args.left, height=args.height, width=args.width)
    encode = encode_ppm if isinstance(img, ColorImage) else encode_pgm
    Path(args.output).write_bytes(encode(crop(img, rect)))
    return 0


def _cmd_bench(args) -> int:
    from .bench import BenchPlan, emit_csv, run_plan  # here: match needs no csv or statistics
    plan = BenchPlan(
        reference=args.reference,
        sizes=[int(x) for x in args.sizes.split(",")],
        positions=_parse_positions(args.positions),
        algorithms=args.algos.split(","),
        repetitions=args.reps,
        color_mode=args.color_mode,
    )
    records = run_plan(plan)
    Path(args.out).write_bytes(emit_csv(records))
    correct = sum(r.correct for r in records)
    print(f"{len(records)} records ({correct} correct) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecmatch", description="Template matching via 1-D column-sum projection."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="locate a template in a reference image")
    p.add_argument("--reference", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--color-mode", default="luma", choices=GRAY_MODES)
    p.add_argument("--map", default=None, help="write the score map as a CSV grid")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("crop", help="cut a rectangle out of a PNM image")
    p.add_argument("--input", required=True)
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_crop)

    p = sub.add_parser("bench", help="run the timing/correctness benchmark")
    p.add_argument("--reference", required=True)
    p.add_argument("--sizes", default="25,50,100,150,200")
    p.add_argument("--algos", default=",".join(ALGORITHMS))
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--positions", default="centered")
    p.add_argument("--color-mode", default="luma", choices=GRAY_MODES)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, PnmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
