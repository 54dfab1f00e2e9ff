"""Grayscale raster type, file opening, PGM I/O, integral images."""

from __future__ import annotations

import errno
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import BoundsError, LbpxError, ParameterError, PgmFormatError

_WHITESPACE = b" \t\n\r\x0b\x0c"


def frozen_array(values, dtype) -> np.ndarray:
    """Read-only C-contiguous copy of `values`; the caller's array stays writable.

    An array already read-only, C-contiguous, of `dtype` and owning its memory
    is kept as it is: only an explicit `setflags(write=True)` can change it.
    """
    if (type(values) is np.ndarray and not values.flags.writeable and values.base is None
            and values.flags.c_contiguous and values.dtype == dtype):
        return values
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def open_file(path, mode: str = "r"):
    """`open` in binary or UTF-8 text mode.

    A path holding a NUL byte raises OSError, like any other path that
    cannot be opened, rather than ValueError.
    """
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except ValueError as exc:
        raise OSError(errno.EINVAL, f"cannot open {os.fspath(path)!r}: {exc}") from None


def read_text_file(path, error: type[LbpxError]) -> str:
    """Contents of a UTF-8 text file; bytes that do not decode raise `error`."""
    with open_file(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from None


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


_COMMENT = re.compile(rb"#[^\n]*\n?")
# separators (whitespace, '#' comments to end of line or data), then one token
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|" + _COMMENT.pattern + rb")*([^ \t\n\r\x0b\x0c#]*)")


class _PgmScanner:
    """Token scanner over PNM header bytes; '#' starts a comment to end of line."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def next_token(self, what: str) -> bytes:
        match = _TOKEN.match(self.data, self.pos)
        self.pos = match.end()
        if match.start(1) == self.pos:
            raise PgmFormatError(f"unexpected end of header while reading {what}")
        return match[1]

    def next_int(self, what: str) -> int:
        token = self.next_token(what)
        if token.isdigit():  # ASCII digits only: no sign, '_' or non-ASCII digit
            try:
                return int(token)
            except ValueError:  # more digits than int() will read
                pass
        raise PgmFormatError(f"malformed {what} {token!r} in header")


def load_pgm(data: bytes) -> GrayImage:
    """Parse binary (P5) or ASCII (P2) PGM bytes into a GrayImage.

    Header comments are permitted; maxval must not exceed 255, and no pixel
    value may exceed maxval. Pixel values are stored as-is (no rescaling to
    maxval).
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
        values = np.frombuffer(payload[:count], dtype=np.uint8)
        # a byte never exceeds maxval 255, so only a lower maxval needs the scan
        peak = values.max() if maxval < 255 else 0
    else:
        # a '#' anywhere starts a comment, so a space in its place keeps every
        # token; stripped, since fromstring reads blank text as one 0
        payload = _COMMENT.sub(b" ", data[scanner.pos :]).strip()
        if payload.translate(None, _WHITESPACE + b"0123456789"):
            tokens = payload.split()
            bad = next(i for i, token in enumerate(tokens) if not token.isdigit())
            if bad >= count:
                raise PgmFormatError("trailing data after pixel payload")
            raise PgmFormatError(f"malformed pixel value {tokens[bad]!r}")
        # digits and whitespace only; a value past int64 saturates, above maxval
        values = np.fromstring(payload, dtype=np.int64, sep=" ")
        if len(values) < count:
            raise PgmFormatError(
                f"truncated pixel payload: expected {count} values, got {len(values)}"
            )
        if len(values) > count:
            raise PgmFormatError("trailing data after pixel payload")
        peak = values.max()

    if peak > maxval:
        raise PgmFormatError("pixel value outside [0, maxval]")
    return GrayImage(np.asarray(values, dtype=np.uint8).reshape(height, width))


def save_pgm(img: GrayImage) -> bytes:
    """Serialize as binary PGM (P5, maxval 255)."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def load_pgm_file(path) -> GrayImage:
    with open_file(path, "rb") as fh:
        data = fh.read()
    try:
        return load_pgm(data)
    except PgmFormatError as exc:
        raise PgmFormatError(f"{path}: {exc}") from None


def save_pgm_file(img: GrayImage, path) -> None:
    with open_file(path, "wb") as fh:
        fh.write(save_pgm(img))


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
