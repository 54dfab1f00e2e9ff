"""Code-to-label mapping tables: raw, uniform (u2), rotation-invariant (ri), riu2.

A pattern is uniform when its circular bit string has at most 2 transitions
between 0 and 1. Label spaces:

  raw   -- identity, 2^P labels
  u2    -- one label per uniform code (ascending code order) plus a single
           shared non-uniform bin, P*(P-1) + 3 labels
  ri    -- codes grouped by their minimal bit-rotation, compacted in
           ascending representative order
  riu2  -- uniform codes labeled by their count of 1-bits, all non-uniform
           codes share label P+1, for P + 2 labels; beyond 8 neighbors the
           LBP pipeline computes them with `_riu2_labels` and builds no table
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .image import frozen_array

MAPPING_MODES = ("raw", "u2", "ri", "riu2")
MIN_NEIGHBORS = 2
MAX_NEIGHBORS = 24


def _check_neighbors(neighbors: int) -> None:
    integral = isinstance(neighbors, numbers.Integral)
    if not (integral and MIN_NEIGHBORS <= neighbors <= MAX_NEIGHBORS):
        raise ParameterError(
            f"neighbor count must be an integer in [{MIN_NEIGHBORS}, {MAX_NEIGHBORS}], "
            f"got {neighbors}"
        )


def _check_labels(labels: np.ndarray, count: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= count):
        raise ParameterError(f"labels must lie in [0, {count}) for this configuration")


@dataclass(frozen=True, eq=False)
class MappingTable:
    """Lookup table from raw P-bit codes to compacted labels."""

    table: np.ndarray
    label_count: int

    def __post_init__(self):
        arr = frozen_array(self.table, np.int32)
        _check_labels(arr, self.label_count)
        object.__setattr__(self, "table", arr)

    def apply(self, codes: np.ndarray) -> np.ndarray:
        return np.take(self.table, codes)


def uniformity(code: int, neighbors: int) -> int:
    """Number of 0<->1 transitions in the circular P-bit string of `code`."""
    _check_neighbors(neighbors)
    if not 0 <= code < (1 << neighbors):
        raise ParameterError(f"code {code} out of range for {neighbors} bits")
    rotated = (code >> 1) | ((code & 1) << (neighbors - 1))
    return int(bin(code ^ rotated).count("1"))


def _uniform_codes(neighbors: int) -> list[int]:
    """The P*(P-1) + 2 uniform codes in ascending order: 0, all ones, and
    every rotation of every run of 1 to P-1 ones."""
    mask = (1 << neighbors) - 1
    runs = [(1 << k) - 1 for k in range(1, neighbors)]
    rotations = {(run << s | run >> (neighbors - s)) & mask for run in runs
                 for s in range(neighbors)}
    return sorted(rotations | {0, mask})


@functools.lru_cache(maxsize=None)
def build_mapping(neighbors: int, mode: str) -> MappingTable:
    """Build the full 2^P lookup table for the requested mapping mode."""
    count = label_count(mode, neighbors)
    size = 1 << neighbors
    if mode == "raw":
        table = np.arange(size, dtype=np.int32)
    elif mode in ("u2", "riu2"):
        # non-uniform codes share the last label; u2 numbers the uniform codes
        # in ascending order, riu2 labels them by their count of 1-bits
        uniform = _uniform_codes(neighbors)
        table = np.full(size, count - 1, dtype=np.int32)
        table[uniform] = np.arange(count - 1) if mode == "u2" else [c.bit_count() for c in uniform]
    else:
        # ri: minimal bit-rotation, compacted in ascending representative order
        reps = np.arange(size, dtype=np.uint32)
        rotated = reps.copy()
        low_bit = np.empty_like(reps)
        for _ in range(neighbors - 1):
            np.bitwise_and(rotated, 1, out=low_bit)
            low_bit <<= neighbors - 1
            rotated >>= 1
            rotated |= low_bit
            np.minimum(reps, rotated, out=reps)
        del rotated, low_bit  # 128 MB at P=24, freed before the rank arrays
        rank = np.cumsum(reps == np.arange(size, dtype=np.uint32), dtype=np.int32)
        rank -= 1
        table = rank[reps]
    table.setflags(write=False)  # the record keeps this array rather than a copy
    return MappingTable(table, count)


def _riu2_labels(codes: np.ndarray, neighbors: int) -> np.ndarray:
    """riu2 labels of `codes` without a table: circular transitions come in
    even numbers, so a code is uniform iff at most 2 of its P-1 linear bit pairs differ."""
    linear = (codes ^ (codes >> 1)) & ((1 << (neighbors - 1)) - 1)
    nonuniform = (np.bitwise_count(linear) > 2) * np.uint8(neighbors + 1)
    return np.maximum(np.bitwise_count(codes), nonuniform)


def label_count(mode: str, neighbors: int) -> int:
    """Size of the label space for a mapping mode and neighbor count."""
    _check_neighbors(neighbors)
    if mode == "raw":
        return 1 << neighbors
    if mode == "u2":
        return neighbors * (neighbors - 1) + 3
    if mode == "riu2":
        return neighbors + 2
    if mode == "ri":
        # binary necklaces of length P (Burnside: rotation by r fixes 2^gcd(r, P) codes)
        return sum(1 << math.gcd(r, neighbors) for r in range(neighbors)) // neighbors
    raise ParameterError(f"unknown mapping mode {mode!r}, expected one of {MAPPING_MODES}")
