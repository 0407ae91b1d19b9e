"""Image types, binary Netpbm (PGM/PPM) codec, grayscale conversion, cropping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PnmError(ValueError):
    """Base class for Netpbm codec failures."""


class UnsupportedFormatError(PnmError):
    """Magic number is not P5 or P6."""


class MalformedHeaderError(PnmError):
    """Header tokens are missing or not parseable as positive integers."""


class UnsupportedMaxvalError(PnmError):
    """Declared maxval is outside 1..255."""


class TruncatedPayloadError(PnmError):
    """Raster holds fewer bytes than the header promises."""


class SampleRangeError(PnmError):
    """A raster sample exceeds the declared maxval."""


class PixelValueError(ValueError):
    """A pixel value is not an integer in 0..255: NaN, infinite, fractional
    or out of range."""


class BoundsError(ValueError):
    """Rectangle does not fit inside the image."""


def _as_uint8(px: np.ndarray, what: str) -> np.ndarray:
    """Read-only uint8 copy of px; any value a uint8 cannot hold exactly is a
    PixelValueError, never a silent cast."""
    if px.dtype == np.uint8:
        px = px.copy()
    else:
        if not np.isfinite(px).all():
            raise PixelValueError(f"{what} values must be finite")
        if px.min() < 0 or px.max() > 255:
            raise PixelValueError(f"{what} values must be in 0..255")
        if np.issubdtype(px.dtype, np.inexact) and (px != np.floor(px)).any():
            raise PixelValueError(f"{what} values must be whole numbers")
        px = px.astype(np.uint8)
    px.setflags(write=False)
    return px


class _Image:
    """Shape and equality shared by GrayImage and ColorImage: a non-empty,
    read-only uint8 pixel array whose first two axes are height and width."""

    __slots__ = ("pixels",)

    def __init__(self, px: np.ndarray, what: str) -> None:
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        self.pixels = _as_uint8(px, what)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.height}x{self.width})"


class GrayImage(_Image):
    """Rectangular grid of 8-bit intensities, row-major, top row first."""

    __slots__ = ()

    def __init__(self, pixels) -> None:
        px = np.asarray(pixels)
        if px.ndim != 2:
            raise ValueError(f"expected a 2-D pixel grid, got ndim={px.ndim}")
        super().__init__(px, "pixel")


class ColorImage(_Image):
    """Rectangular grid of (R, G, B) triples, each channel 0..255."""

    __slots__ = ()

    def __init__(self, pixels) -> None:
        px = np.asarray(pixels)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError("expected an (H, W, 3) pixel grid")
        super().__init__(px, "channel")


@dataclass(frozen=True)
class Rect:
    """0-based crop rectangle: (top, left) corner plus extent."""

    top: int
    left: int
    height: int
    width: int

    def __post_init__(self) -> None:
        for value in (self.top, self.left, self.height, self.width):
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"rectangle fields must be integers, got {value!r}")
        if self.height < 1 or self.width < 1:
            raise BoundsError("rectangle extent must be at least 1x1")
        if self.top < 0 or self.left < 0:
            raise BoundsError("rectangle corner must be non-negative")


_WHITESPACE = b" \t\r\n\x0b\x0c"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Read the next header token, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        b = data[pos : pos + 1]
        if b == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif b in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise MalformedHeaderError("unexpected end of header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def decode_pnm(data: bytes) -> GrayImage | ColorImage:
    """Decode binary PGM (P5) into GrayImage or binary PPM (P6) into ColorImage.

    Accepts any bytes-like input (bytes, bytearray, memoryview).
    """
    data = bytes(data)
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise UnsupportedFormatError(f"unsupported magic {magic!r}; only P5/P6 binary")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        if not tok.isdigit():
            raise MalformedHeaderError(f"expected integer header field, got {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MalformedHeaderError("dimensions must be positive")
    if not 1 <= maxval <= 255:
        raise UnsupportedMaxvalError(f"maxval {maxval} unsupported; need 1..255")
    # Exactly one whitespace byte separates the header from the raster.
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise MalformedHeaderError("missing whitespace before raster")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = height * width * channels
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise TruncatedPayloadError(f"raster has {len(raster)} bytes, need {need}")
    arr = np.frombuffer(raster, dtype=np.uint8)
    if maxval < 255 and int(arr.max()) > maxval:
        raise SampleRangeError(f"raster sample {int(arr.max())} exceeds maxval {maxval}")
    if channels == 1:
        return GrayImage(arr.reshape(height, width))
    return ColorImage(arr.reshape(height, width, 3))


def encode_pgm(image: GrayImage) -> bytes:
    """Encode a GrayImage as binary PGM (P5); exact round trip with decode_pnm."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def encode_ppm(image: ColorImage) -> bytes:
    """Encode a ColorImage as binary PPM (P6)."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


GRAY_MODES = ("luma", "channel-sum")


def to_gray(image: ColorImage, mode: str = "luma") -> GrayImage:
    """Collapse RGB to intensity: BT.601 luma weights, or the plain channel mean."""
    if not isinstance(image, ColorImage):
        raise TypeError(f"expected a ColorImage, got {type(image).__name__}")
    rgb = image.pixels.astype(np.float64)
    if mode == "luma":
        g = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    elif mode == "channel-sum":
        g = (rgb[:, :, 0] + rgb[:, :, 1] + rgb[:, :, 2]) / 3.0
    else:
        raise ValueError(f"unknown gray mode {mode!r}; expected one of {GRAY_MODES}")
    g = np.clip(np.floor(g + 0.5), 0, 255)
    return GrayImage(g.astype(np.uint8))


def crop(image: GrayImage | ColorImage, rect: Rect) -> GrayImage | ColorImage:
    """Extract the sub-image covered by rect, of the image's own type."""
    if rect.top + rect.height > image.height or rect.left + rect.width > image.width:
        raise BoundsError(
            f"rect {rect} exceeds image bounds {image.height}x{image.width}"
        )
    return type(image)(
        image.pixels[rect.top : rect.top + rect.height, rect.left : rect.left + rect.width]
    )
