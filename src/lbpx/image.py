"""Grayscale raster type, PGM I/O, bilinear sampling, integral images."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import BoundsError, ParameterError, PgmFormatError

_WHITESPACE = b" \t\n\r\x0b\x0c"


def frozen_array(values, dtype) -> np.ndarray:
    """Read-only C-contiguous copy of `values`; the caller's array stays writable."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def fields_equal(self, other) -> bool:
    """`__eq__` for dataclasses with array fields: arrays compare by shape and value."""
    if not isinstance(other, type(self)):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b
        for a, b in pairs
    )


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale raster, row-major, pixel (x, y) at pixels[y, x]."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise ParameterError(f"image array must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError(f"image must be at least 1x1, got {arr.shape[1]}x{arr.shape[0]}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ParameterError(f"image values must be integers, got dtype {arr.dtype}")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ParameterError("image values must lie in [0, 255]")
        object.__setattr__(self, "pixels", frozen_array(arr, np.uint8))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view: pixel (x, y) at data[y * width + x]."""
        return self.pixels.reshape(-1)

    __eq__ = fields_equal

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


@dataclass(frozen=True, eq=False)
class IntegralImage:
    """Inclusive summed-area table: sums[y, x] = sum of source over i<=x, j<=y."""

    sums: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sums", frozen_array(self.sums, np.int64))

    @property
    def width(self) -> int:
        return self.sums.shape[1]

    @property
    def height(self) -> int:
        return self.sums.shape[0]


class _PgmScanner:
    """Token scanner over PNM header bytes; '#' starts a comment to end of line."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_separators(self) -> None:
        while self.pos < len(self.data):
            byte = self.data[self.pos : self.pos + 1]
            if byte in (b"#",):
                eol = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if eol < 0 else eol + 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                return

    def next_token(self, what: str) -> bytes:
        self._skip_separators()
        start = self.pos
        while self.pos < len(self.data):
            byte = self.data[self.pos : self.pos + 1]
            if byte in _WHITESPACE or byte == b"#":
                break
            self.pos += 1
        if self.pos == start:
            raise PgmFormatError(f"unexpected end of header while reading {what}")
        return self.data[start : self.pos]

    def next_int(self, what: str) -> int:
        token = self.next_token(what)
        try:
            return int(token)
        except ValueError:
            raise PgmFormatError(f"malformed {what} {token!r} in header") from None


def load_pgm(data: bytes) -> GrayImage:
    """Parse binary (P5) or ASCII (P2) PGM bytes into a GrayImage.

    Header comments are permitted; maxval must not exceed 255. Pixel values
    are stored as-is (no rescaling to maxval).
    """
    scanner = _PgmScanner(data)
    magic = scanner.next_token("magic number")
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"unsupported magic number {magic!r}, expected P5 or P2")
    width = scanner.next_int("width")
    height = scanner.next_int("height")
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid dimensions {width}x{height}")
    maxval = scanner.next_int("maxval")
    if maxval < 1 or maxval > 255:
        raise PgmFormatError(f"maxval {maxval} outside supported range [1, 255]")
    count = width * height

    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the payload
        if scanner.pos >= len(data) or data[scanner.pos : scanner.pos + 1] not in _WHITESPACE:
            raise PgmFormatError("missing whitespace between maxval and pixel payload")
        payload = data[scanner.pos + 1 :]
        if len(payload) < count:
            raise PgmFormatError(
                f"truncated pixel payload: expected {count} bytes, got {len(payload)}"
            )
        pixels = np.frombuffer(payload[:count], dtype=np.uint8)
    else:
        values = []
        for _ in range(count):
            try:
                values.append(scanner.next_int("pixel value"))
            except PgmFormatError:
                raise PgmFormatError(
                    f"truncated pixel payload: expected {count} values, got {len(values)}"
                ) from None
        scanner._skip_separators()
        if scanner.pos < len(data):
            raise PgmFormatError("trailing data after pixel payload")
        pixels = np.array(values, dtype=np.int64)
        if pixels.min() < 0 or pixels.max() > maxval:
            raise PgmFormatError("pixel value outside [0, maxval]")

    return GrayImage(pixels.reshape(height, width))


def save_pgm(img: GrayImage) -> bytes:
    """Serialize as binary PGM (P5, maxval 255)."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def load_pgm_file(path) -> GrayImage:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return load_pgm(data)
    except PgmFormatError as exc:
        raise PgmFormatError(f"{path}: {exc}") from None


def save_pgm_file(img: GrayImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save_pgm(img))


def bilinear_sample(img: GrayImage, x: float, y: float) -> float:
    """Bilinear blend of the 4 grid pixels around (x, y); exact at integer coords.

    Valid for 0 <= x <= width-1 and 0 <= y <= height-1. The result is clamped
    to the [min, max] of the four neighbors so rounding can never escape them.
    """
    if not (0.0 <= x <= img.width - 1) or not (0.0 <= y <= img.height - 1):
        raise BoundsError(
            f"sample point ({x}, {y}) outside [0, {img.width - 1}] x [0, {img.height - 1}]"
        )
    px = img.pixels
    x0 = int(math.floor(x))
    y0 = int(math.floor(y))
    x1 = min(x0 + 1, img.width - 1)
    y1 = min(y0 + 1, img.height - 1)
    fx = x - x0
    fy = y - y0
    p00 = float(px[y0, x0])
    p01 = float(px[y0, x1])
    p10 = float(px[y1, x0])
    p11 = float(px[y1, x1])
    top = p00 + fx * (p01 - p00)
    bottom = p10 + fx * (p11 - p10)
    value = top + fy * (bottom - top)
    lo = min(p00, p01, p10, p11)
    hi = max(p00, p01, p10, p11)
    return min(max(value, lo), hi)


def integral_image(img: GrayImage) -> IntegralImage:
    """Inclusive summed-area table of the image, 64-bit sums."""
    sums = np.cumsum(np.cumsum(img.pixels, axis=0, dtype=np.int64), axis=1, dtype=np.int64)
    return IntegralImage(sums)


def region_sum(ii: IntegralImage, x0: int, y0: int, x1: int, y1: int) -> int:
    """Sum of source pixels over the inclusive rectangle [x0, x1] x [y0, y1].

    Constant time via the 4-corner identity.
    """
    if not (0 <= x0 <= x1 < ii.width) or not (0 <= y0 <= y1 < ii.height):
        raise BoundsError(
            f"rectangle ({x0}, {y0})-({x1}, {y1}) invalid for {ii.width}x{ii.height} table"
        )
    s = ii.sums
    total = int(s[y1, x1])
    if x0 > 0:
        total -= int(s[y1, x0 - 1])
    if y0 > 0:
        total -= int(s[y0 - 1, x1])
    if x0 > 0 and y0 > 0:
        total += int(s[y0 - 1, x0 - 1])
    return total
