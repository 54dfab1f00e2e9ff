"""LBP operators: basic 3x3 encoding, circular (P, R) encoding, whole-image maps.

Conventions (load-bearing, shared by both operators):

  * A neighbor equal to the center counts as 1; only strictly darker
    neighbors encode 0.
  * Neighbors are read clockwise starting from the top-left; the first
    neighbor is the MOST significant bit, so the binary string reads in
    sampling order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import mapping as _mapping
from .errors import BoundsError, ParameterError
from .image import GrayImage, fields_equal, frozen_array

SAMPLING_MODES = ("square3x3", "circular")

# (dx, dy) clockwise from top-left: TL, T, TR, R, BR, B, BL, L
_RING_3X3 = ((-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0))

_SNAP_EPS = 1e-9

# far beyond any sampling circle that fits a real image
MAX_RADIUS = 65535.0


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
        _mapping.label_count(self.mapping, self.neighbors)  # validates both, builds no table
        if self.sampling == "square3x3" and self.neighbors != 8:
            raise ParameterError("square3x3 sampling requires exactly 8 neighbors")
        if not 0 < self.radius <= MAX_RADIUS:
            raise ParameterError(f"radius must be in (0, {MAX_RADIUS:g}], got {self.radius}")

    @property
    def origin_offset(self) -> int:
        """Border width excluded from the label map."""
        return 1 if self.sampling == "square3x3" else int(math.ceil(self.radius))

    @property
    def label_count(self) -> int:
        return _mapping.label_count(self.mapping, self.neighbors)


@dataclass(frozen=True, eq=False)
class LbpMap:
    """Per-pixel labels over the interior region of a source image.

    Map position (x, y) corresponds to source pixel (x + o, y + o) for the
    origin offset o of `params`.
    """

    params: LbpParams
    labels: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.labels, np.int32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError("label map must be a non-empty 2-D array")
        _mapping._check_labels(arr, self.params.label_count)
        object.__setattr__(self, "labels", arr)

    @property
    def origin_offset(self) -> int:
        return self.params.origin_offset

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
    A sample's integer part and fraction come from its offset alone (snapped
    within 1e-9 of the lattice), never from the center's position, and it is
    lerped horizontally and then vertically: the code kernel's rule, so
    `lbp_map` gives these codes bit for bit.
    """
    offsets = circular_offsets(params.neighbors, params.radius)
    if not (0 <= cx < img.width and 0 <= cy < img.height):
        raise BoundsError(f"center ({cx}, {cy}) outside {img.width}x{img.height} image")
    for dx, dy in offsets:
        if not (0 <= cx + dx <= img.width - 1 and 0 <= cy + dy <= img.height - 1):
            raise BoundsError(
                f"sampling circle around ({cx}, {cy}) leaves the {img.width}x{img.height} image"
            )
    px = img.pixels
    center = float(px[cy, cx])
    code = 0
    msb = params.neighbors - 1
    plan = _sample_plan("circular", params.neighbors, params.radius)
    for p, (ix, fx, iy, fy) in enumerate(plan):
        x, y = cx + ix, cy + iy
        top = float(px[y, x])
        if fx:
            top += fx * (float(px[y, x + 1]) - top)
        value = top
        if fy:
            bottom = float(px[y + 1, x])
            if fx:
                bottom += fx * (float(px[y + 1, x + 1]) - bottom)
            value = top + fy * (bottom - top)
        if value >= center:
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


@functools.lru_cache(maxsize=128)
def _sample_plan(sampling: str, neighbors: int, radius: float) -> tuple:
    """(ix, fx, iy, fy) per sample, MSB first: integer part and fraction of each offset."""
    offsets = _RING_3X3 if sampling == "square3x3" else circular_offsets(neighbors, radius)
    return tuple(_split_offset(dx) + _split_offset(dy) for dx, dy in offsets)


def _codes(px: np.ndarray, params: LbpParams) -> np.ndarray:
    """Raw codes of every interior pixel, one bit per sample, MSB first.

    Every pass runs on the flat row-major run from the first to the last
    interior pixel, so sample (ix, iy) is one shift `iy*w + ix` and each
    ufunc reads and writes contiguous memory; the 2*o entries between
    interior rows are computed and dropped. Samples on the lattice compare
    the 8-bit pixels directly. The others lerp horizontally and then
    vertically, with fractions taken from the offsets, so every center
    shares one sampling rule. The scalar `lbp_code_circular` follows that
    rule with the same float64 operations in the same order, so the codes
    equal its codes bit for bit and constant areas stay exact.
    """
    o = params.origin_offset
    h, w = px.shape
    ch, cw = h - 2 * o, w - 2 * o
    start, n = o * w + o, (ch - 1) * w + cw
    neighbors = params.neighbors
    plan = _sample_plan(params.sampling, neighbors, params.radius)
    flat = px.reshape(-1)
    center = flat[start : start + n]
    # bits gather in a uint8 plane (doubling is a cheap shift) and every 8
    # bits, counted from the LSB end, move into the codes; 8 more doublings
    # clear the plane
    plane = np.zeros(ch * w, dtype=np.uint8)
    codes = plane if neighbors <= 8 else np.zeros(ch * w, dtype=np.uint32)
    bits, ge = plane[:n], np.empty(n, dtype=bool)
    if any(fx or fy for _, fx, _, fy in plan):
        f = flat.astype(np.float64)
        dfx = f[1:] - f[:-1]  # exact: the pixels are integers
        center_f = f[start : start + n]
        lerp_x, lerp_y = np.empty(n + w), np.empty(n)
    for p, (ix, fx, iy, fy) in enumerate(plan):
        s = start + iy * w + ix
        if not (fx or fy):
            np.greater_equal(flat[s : s + n], center, out=ge)
        else:
            # row r of the run is the top of center row r and the bottom of row r - 1
            span = slice(s, s + n + (w if fy else 0))
            samples = f[span]
            if fx:
                samples = np.multiply(dfx[span], fx, out=lerp_x[: len(samples)])
                samples += f[span]
            if fy:
                np.subtract(samples[w:], samples[:-w], out=lerp_y)
                lerp_y *= fy
                lerp_y += samples[:-w]
                samples = lerp_y
            np.greater_equal(samples, center_f, out=ge)
        bits += bits
        bits |= ge.view(np.uint8)
        still = neighbors - 1 - p
        if neighbors > 8 and still % 8 == 0:
            codes[:n] |= bits.astype(np.uint32) << still
    return codes.reshape(ch, w)[:, :cw]


def _coded(img: GrayImage, params: LbpParams) -> tuple[np.ndarray, _mapping.MappingTable | None]:
    """Interior codes with their label table, or labels and None: raw codes are
    labels, up to 8 neighbors a caller may fold counts through the table rather
    than gather, and beyond that riu2 labels come from the bit-count rule and
    other mappings gather the table here."""
    o = params.origin_offset
    if img.width < 2 * o + 1 or img.height < 2 * o + 1:
        raise ParameterError(
            f"image {img.width}x{img.height} too small for origin offset {o}; "
            f"need at least {2 * o + 1}x{2 * o + 1}"
        )
    codes = _codes(img.pixels, params)
    if params.mapping == "raw":
        return codes, None
    if params.mapping == "riu2" and params.neighbors > 8:
        return _mapping._riu2_labels(codes, params.neighbors), None
    mapping = _mapping.build_mapping(params.neighbors, params.mapping)
    return (mapping.apply(codes), None) if params.neighbors > 8 else (codes, mapping)


def lbp_map(img: GrayImage, params: LbpParams) -> LbpMap:
    """Label every pixel whose whole sampling neighborhood is in-bounds.

    The map spans (width - 2*o) x (height - 2*o) for origin offset o; the
    configured mapping table is applied unless the mapping is raw.
    """
    codes, mapping = _coded(img, params)
    labels = codes if mapping is None else mapping.apply(codes)
    return LbpMap(params=params, labels=labels)


def _check_exportable(params: LbpParams) -> None:
    if params.label_count > 256:
        raise ParameterError(f"map export needs at most 256 labels, got {params.label_count}")


def lbp_map_to_image(lmap: LbpMap) -> GrayImage:
    """Render a map whose labels fit in a byte (at most 256) as a grayscale image."""
    _check_exportable(lmap.params)
    return GrayImage(lmap.labels.astype(np.uint8))
