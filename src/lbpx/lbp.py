"""LBP operators: basic 3x3 encoding, circular (P, R) encoding, whole-image maps.

Conventions (load-bearing, shared by both operators):

  * A neighbor equal to the center counts as 1; only strictly darker
    neighbors encode 0.
  * Neighbors are read clockwise starting from the top-left; the first
    neighbor is the MOST significant bit, so the binary string reads in
    sampling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mapping as _mapping
from .errors import BoundsError, ParameterError
from .image import GrayImage, bilinear_sample, fields_equal, frozen_array

SAMPLING_MODES = ("square3x3", "circular")

# (dx, dy) clockwise from top-left: TL, T, TR, R, BR, B, BL, L
_RING_3X3 = ((-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0))

_SNAP_EPS = 1e-9


@dataclass(frozen=True)
class LbpParams:
    """Full configuration of an LBP operator.

    `radius` is ignored for square3x3 sampling, which always reads the
    fixed 8-neighbor ring.
    """

    neighbors: int = 8
    radius: float = 1.0
    sampling: str = "square3x3"
    mapping: str = "u2"

    def __post_init__(self):
        if self.sampling not in SAMPLING_MODES:
            raise ParameterError(
                f"unknown sampling mode {self.sampling!r}, expected one of {SAMPLING_MODES}"
            )
        if self.mapping not in _mapping.MAPPING_MODES:
            raise ParameterError(
                f"unknown mapping mode {self.mapping!r}, expected one of {_mapping.MAPPING_MODES}"
            )
        if not _mapping.MIN_NEIGHBORS <= self.neighbors <= _mapping.MAX_NEIGHBORS:
            raise ParameterError(
                f"neighbor count must be in [{_mapping.MIN_NEIGHBORS}, "
                f"{_mapping.MAX_NEIGHBORS}], got {self.neighbors}"
            )
        if self.sampling == "square3x3" and self.neighbors != 8:
            raise ParameterError("square3x3 sampling requires exactly 8 neighbors")
        if not 0 < self.radius < math.inf:
            raise ParameterError(f"radius must be positive and finite, got {self.radius}")

    @property
    def origin_offset(self) -> int:
        """Border width excluded from the label map."""
        return 1 if self.sampling == "square3x3" else int(math.ceil(self.radius))

    @property
    def label_count(self) -> int:
        return _mapping.label_count(self.mapping, self.neighbors)

    def to_json_dict(self) -> dict:
        return {
            "neighbors": self.neighbors,
            "radius": self.radius,
            "sampling": self.sampling,
            "mapping": self.mapping,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LbpParams":
        return cls(
            neighbors=int(d["neighbors"]),
            radius=float(d["radius"]),
            sampling=str(d["sampling"]),
            mapping=str(d["mapping"]),
        )


@dataclass(frozen=True, eq=False)
class LbpMap:
    """Per-pixel labels over the interior region of a source image.

    Map position (x, y) corresponds to source pixel
    (x + origin_offset, y + origin_offset).
    """

    params: LbpParams
    origin_offset: int
    labels: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.labels, np.int32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError("label map must be a non-empty 2-D array")
        if arr.size and (arr.min() < 0 or arr.max() >= self.params.label_count):
            raise ParameterError(
                f"labels must lie in [0, {self.params.label_count}) for this configuration"
            )
        object.__setattr__(self, "labels", arr)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    __eq__ = fields_equal

    def __repr__(self) -> str:
        return f"LbpMap({self.width}x{self.height}, {self.params})"


def lbp_code_3x3(patch) -> int:
    """Raw 8-bit code of a full 3x3 neighborhood.

    Bit p (MSB first) is 1 iff the p-th clockwise-from-top-left neighbor is
    greater than or equal to the center.
    """
    arr = np.asarray(patch)
    if arr.shape != (3, 3):
        raise ParameterError(f"patch must be 3x3, got shape {arr.shape}")
    center = int(arr[1, 1])
    code = 0
    for p, (dx, dy) in enumerate(_RING_3X3):
        if int(arr[1 + dy, 1 + dx]) >= center:
            code |= 1 << (7 - p)
    return code


def circular_offsets(neighbors: int, radius: float) -> list[tuple[float, float]]:
    """Sampling offsets evenly spaced on the circle of the given radius.

    Point 0 lies toward the top-left (angle -3*pi/4 with y pointing down)
    and subsequent points proceed clockwise on screen, matching the 3x3
    ring order. Coordinates within 1e-9 of an integer are snapped so that
    exact lattice hits stay exact.

    The (8, sqrt(2)) configuration is pinned to the unit pixel ring: this
    circle passes through the four diagonal neighbors, and aligning the
    four axial points to the ring makes the circular code reproduce the
    3x3 code bit for bit.
    """
    if neighbors < 2:
        raise ParameterError(f"need at least 2 sampling points, got {neighbors}")
    if not radius > 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    if neighbors == 8 and abs(radius - math.sqrt(2.0)) <= _SNAP_EPS:
        return [(float(dx), float(dy)) for dx, dy in _RING_3X3]
    offsets = []
    for p in range(neighbors):
        angle = -0.75 * math.pi + 2.0 * math.pi * p / neighbors
        dx = radius * math.cos(angle)
        dy = radius * math.sin(angle)
        if abs(dx - round(dx)) <= _SNAP_EPS:
            dx = float(round(dx))
        if abs(dy - round(dy)) <= _SNAP_EPS:
            dy = float(round(dy))
        offsets.append((dx, dy))
    return offsets


def lbp_code_circular(img: GrayImage, cx: int, cy: int, params: LbpParams) -> int:
    """Raw P-bit code at (cx, cy) from interpolated circular samples.

    The whole sampling footprint must lie inside the image; each sample is
    compared to the center with the same >=-is-1 rule as the 3x3 operator.
    """
    offsets = circular_offsets(params.neighbors, params.radius)
    if not (0 <= cx < img.width and 0 <= cy < img.height):
        raise BoundsError(f"center ({cx}, {cy}) outside {img.width}x{img.height} image")
    for dx, dy in offsets:
        if not (0 <= cx + dx <= img.width - 1 and 0 <= cy + dy <= img.height - 1):
            raise BoundsError(
                f"sampling circle around ({cx}, {cy}) leaves the {img.width}x{img.height} image"
            )
    center = float(img.pixels[cy, cx])
    code = 0
    msb = params.neighbors - 1
    for p, (dx, dy) in enumerate(offsets):
        if bilinear_sample(img, cx + dx, cy + dy) >= center:
            code |= 1 << (msb - p)
    return code


def _split_offset(delta: float) -> tuple[int, float]:
    base = math.floor(delta)
    frac = delta - base
    if frac <= _SNAP_EPS:
        frac = 0.0
    elif frac >= 1.0 - _SNAP_EPS:
        base += 1
        frac = 0.0
    return int(base), frac


def _square3x3_codes(px: np.ndarray) -> np.ndarray:
    center = px[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    h, w = px.shape
    for p, (dx, dy) in enumerate(_RING_3X3):
        neighbor = px[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx]
        codes |= (neighbor >= center).astype(np.uint8) << (7 - p)
    return codes.astype(np.int32)


def _circular_codes(px: np.ndarray, params: LbpParams) -> np.ndarray:
    o = params.origin_offset
    h, w = px.shape
    center_u8 = px[o : h - o, o : w - o]
    center_f = center_u8.astype(np.float64)
    codes = np.zeros(center_u8.shape, dtype=np.int32)
    msb = params.neighbors - 1
    for p, (dx, dy) in enumerate(circular_offsets(params.neighbors, params.radius)):
        ix, fx = _split_offset(dx)
        iy, fy = _split_offset(dy)

        def shifted(sx: int, sy: int) -> np.ndarray:
            return px[o + sy : h - o + sy, o + sx : w - o + sx]

        if fx == 0.0 and fy == 0.0:
            ge = shifted(ix, iy) >= center_u8
        else:
            # nested lerp keeps constant neighborhoods and lattice hits exact
            s00 = shifted(ix, iy).astype(np.float64)
            if fx == 0.0:
                top = s00
                bottom = shifted(ix, iy + 1).astype(np.float64)
            elif fy == 0.0:
                top = s00 + fx * (shifted(ix + 1, iy) - s00)
                bottom = top
            else:
                s01 = shifted(ix + 1, iy).astype(np.float64)
                s10 = shifted(ix, iy + 1).astype(np.float64)
                s11 = shifted(ix + 1, iy + 1).astype(np.float64)
                top = s00 + fx * (s01 - s00)
                bottom = s10 + fx * (s11 - s10)
            ge = top + fy * (bottom - top) >= center_f
        codes |= ge.astype(np.int32) << (msb - p)
    return codes


def lbp_map(img: GrayImage, params: LbpParams) -> LbpMap:
    """Label every pixel whose whole sampling neighborhood is in-bounds.

    The map spans (width - 2*o) x (height - 2*o) for origin offset o; the
    configured mapping table is applied unless the mapping is raw.
    """
    o = params.origin_offset
    if img.width < 2 * o + 1 or img.height < 2 * o + 1:
        raise ParameterError(
            f"image {img.width}x{img.height} too small for origin offset {o}; "
            f"need at least {2 * o + 1}x{2 * o + 1}"
        )
    if params.sampling == "square3x3":
        codes = _square3x3_codes(img.pixels)
    else:
        codes = _circular_codes(img.pixels, params)
    if params.mapping != "raw":
        codes = _mapping.build_mapping(params.neighbors, params.mapping).apply(codes)
    return LbpMap(params=params, origin_offset=o, labels=codes)


def lbp_map_to_image(lmap: LbpMap) -> GrayImage:
    """Render a raw 8-neighbor map as a grayscale image for inspection."""
    if lmap.params.mapping != "raw" or lmap.params.neighbors != 8:
        raise ParameterError("map export requires raw mapping with 8 neighbors")
    return GrayImage(lmap.labels.astype(np.uint8))
