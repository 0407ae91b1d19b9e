"""Template matching via 1-D column-sum projection, with full-search SAD/NCC
baselines, pyramid-accelerated variants, brute-force oracles, and a benchmark
harness."""

from .image import (
    BoundsError,
    ColorImage,
    GrayImage,
    MalformedHeaderError,
    PixelValueError,
    PnmError,
    Rect,
    SampleRangeError,
    TruncatedPayloadError,
    UnsupportedFormatError,
    UnsupportedMaxvalError,
    crop,
    decode_pnm,
    encode_pgm,
    encode_ppm,
    to_gray,
)
from .matchers import (
    ALGORITHMS,
    DegenerateTemplateError,
    MatchResult,
    NoCandidateError,
    ScoreOverflowError,
    TemplateSizeError,
    match_dense,
    run_algorithm,
    score_map_only,
)
from .projection import VectorMetric, project_template

__all__ = [
    "ALGORITHMS",
    "BoundsError",
    "ColorImage",
    "DegenerateTemplateError",
    "GrayImage",
    "MalformedHeaderError",
    "MatchResult",
    "NoCandidateError",
    "PixelValueError",
    "PnmError",
    "Rect",
    "SampleRangeError",
    "ScoreOverflowError",
    "TemplateSizeError",
    "TruncatedPayloadError",
    "UnsupportedFormatError",
    "UnsupportedMaxvalError",
    "VectorMetric",
    "crop",
    "decode_pnm",
    "encode_pgm",
    "encode_ppm",
    "match_dense",
    "project_template",
    "run_algorithm",
    "score_map_only",
    "to_gray",
]

__version__ = "0.1.0"
