"""Spatial grid histograms over LBP maps: the feature vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, CorruptMapError, ParameterError
from .image import fields_equal, frozen_array
from .lbp import LbpMap, LbpParams
from .mapping import label_count


@dataclass(frozen=True, eq=False)
class GridDescriptor:
    """Concatenation of per-cell L1-normalized label histograms, row-major cells."""

    grid_rows: int
    grid_cols: int
    params: LbpParams
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_array(self.values, np.float64))

    @property
    def region_count(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def bin_count(self) -> int:
        return len(self.values) // self.region_count

    __eq__ = fields_equal

    def to_json_dict(self) -> dict:
        return {
            "grid": [self.grid_rows, self.grid_cols],
            "params": self.params.to_json_dict(),
            "bins": [float(v) for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridDescriptor":
        rows, cols = (int(v) for v in d["grid"])
        return cls(
            grid_rows=rows,
            grid_cols=cols,
            params=LbpParams.from_json_dict(d["params"]),
            values=np.array(d["bins"], dtype=np.float64),
        )


def region_histogram(
    lmap: LbpMap, x0: int, y0: int, x1: int, y1: int, bin_count: int, normalize: bool = True
) -> np.ndarray:
    """Label histogram of the inclusive map rectangle [x0, x1] x [y0, y1]."""
    if not (0 <= x0 <= x1 < lmap.width) or not (0 <= y0 <= y1 < lmap.height):
        raise BoundsError(
            f"rectangle ({x0}, {y0})-({x1}, {y1}) invalid for {lmap.width}x{lmap.height} map"
        )
    region = lmap.labels[y0 : y1 + 1, x0 : x1 + 1]
    if region.max() >= bin_count:
        raise CorruptMapError(
            f"label {int(region.max())} exceeds histogram bin count {bin_count}"
        )
    hist = np.bincount(region.reshape(-1), minlength=bin_count).astype(np.float64)
    if normalize:
        hist /= region.size
    return hist


def _cell_edges(extent: int, cells: int) -> list[tuple[int, int]]:
    # floor-sized cells; the last one absorbs the remainder
    base = extent // cells
    edges = []
    for i in range(cells):
        start = i * base
        stop = extent if i == cells - 1 else (i + 1) * base
        edges.append((start, stop))
    return edges


def grid_values(labels: np.ndarray, grid_rows: int, grid_cols: int, bin_count: int) -> np.ndarray:
    """Concatenated normalized cell histograms of a raw label array."""
    height, width = labels.shape
    out = np.empty(grid_rows * grid_cols * bin_count, dtype=np.float64)
    idx = 0
    for y_start, y_stop in _cell_edges(height, grid_rows):
        for x_start, x_stop in _cell_edges(width, grid_cols):
            cell = labels[y_start:y_stop, x_start:x_stop]
            hist = np.bincount(cell.reshape(-1), minlength=bin_count).astype(np.float64)
            out[idx : idx + bin_count] = hist / cell.size
            idx += bin_count
    return out


def grid_descriptor(lmap: LbpMap, grid_rows: int = 3, grid_cols: int = 3) -> GridDescriptor:
    """Partition the map into a grid and concatenate per-cell histograms.

    Cell widths are floor(width / grid_cols) with the last column absorbing
    the remainder (same for rows), so every map pixel is counted once.
    """
    if grid_rows < 1 or grid_cols < 1:
        raise ParameterError(f"grid must be at least 1x1, got {grid_rows}x{grid_cols}")
    if grid_rows > lmap.height or grid_cols > lmap.width:
        raise ParameterError(
            f"grid {grid_rows}x{grid_cols} exceeds map dimensions {lmap.width}x{lmap.height}"
        )
    bins = label_count(lmap.params.mapping, lmap.params.neighbors)
    values = grid_values(lmap.labels, grid_rows, grid_cols, bins)
    return GridDescriptor(
        grid_rows=grid_rows, grid_cols=grid_cols, params=lmap.params, values=values
    )
