"""Spatial grid histograms over LBP maps: the feature vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .image import GrayImage, fields_equal, frozen_array
from .lbp import LbpMap, LbpParams, _coded

# the most histogram bins (cells x values counted per cell) a descriptor may need
_MAX_BINS = 2**24


def _check_grid(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ParameterError(f"grid must be at least 1x1, got {rows}x{cols}")


def _checked_bins(layout, values, leading=()) -> np.ndarray:
    """Frozen float64 copy of `values`, the bins of a record with the `params`,
    `grid_rows` and `grid_cols` of `layout`: shape `leading` + (one bin per
    label per cell,), each bin in [0, 1]. Else ParameterError."""
    rows, cols = layout.grid_rows, layout.grid_cols
    _check_grid(rows, cols)
    arr = frozen_array(values, np.float64)
    shape = (*leading, rows * cols * layout.params.label_count)
    if arr.shape != shape:
        raise ParameterError(f"bins of shape {arr.shape} do not fit the grid's {shape}")
    # a bin is a normalized count; min and max are NaN if any bin is, and NaN
    # fails every comparison
    if not (arr.min() >= 0 and arr.max() <= 1):
        raise ParameterError("bins must lie in [0, 1]")
    return arr


@dataclass(frozen=True, eq=False)
class GridDescriptor:
    """Concatenation of per-cell L1-normalized label histograms, row-major cells."""

    grid_rows: int
    grid_cols: int
    params: LbpParams
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_bins(self, self.values))

    @property
    def region_count(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def bin_count(self) -> int:
        return self.params.label_count

    __eq__ = fields_equal


def _cell_edges(extent: int, cells: int) -> list[tuple[int, int]]:
    # floor-sized cells; the last one absorbs the remainder
    base = extent // cells
    return [(i * base, extent if i == cells - 1 else (i + 1) * base) for i in range(cells)]


def grid_values(
    values: np.ndarray, grid_rows: int, grid_cols: int, bin_count: int, table=None
) -> np.ndarray:
    """Concatenated normalized cell histograms of a 2-D array of labels, or
    of codes that count toward label table[code] when a `table` is given.
    The grid is checked before anything is allocated: at least 1x1, at most
    2^24 values counted over all cells, and no larger than the array."""
    height, width = values.shape
    _check_grid(grid_rows, grid_cols)
    cells = grid_rows * grid_cols
    value_count = bin_count if table is None else len(table)
    if cells * value_count > _MAX_BINS:
        raise ParameterError(
            f"grid {grid_rows}x{grid_cols} needs {cells * value_count:,} histogram bins, "
            f"more than {_MAX_BINS:,}"
        )
    if grid_rows > height or grid_cols > width:
        raise ParameterError(
            f"grid {grid_rows}x{grid_cols} exceeds map dimensions {width}x{height}"
        )
    row_edges = _cell_edges(height, grid_rows)
    col_sizes = [stop - start for start, stop in _cell_edges(width, grid_cols)]
    # count once: each value moves to bin (cell index x value_count + value),
    # written in one pass as the intp that bincount reads without a cast
    col_base = np.repeat(np.arange(grid_cols, dtype=np.intp) * value_count, col_sizes)
    bins = np.empty(values.shape, dtype=np.intp)
    for row, (start, stop) in enumerate(row_edges):
        np.add(values[start:stop], col_base + row * grid_cols * value_count, out=bins[start:stop])
    counts = np.bincount(bins.reshape(-1), minlength=cells * value_count)
    if table is not None:
        # exact: weights are integer counts far below 2^53
        folded = np.arange(cells, dtype=np.intp)[:, None] * bin_count + table
        counts = np.bincount(folded.reshape(-1), counts, minlength=cells * bin_count)
    cell_sizes = np.outer([stop - start for start, stop in row_edges], col_sizes)
    return (counts.reshape(cells, bin_count) / cell_sizes.reshape(-1, 1)).reshape(-1)


def grid_descriptor(lmap: LbpMap, grid_rows: int = 3, grid_cols: int = 3) -> GridDescriptor:
    """Partition the map into a grid and concatenate per-cell histograms.

    Cell widths are floor(width / grid_cols) with the last column absorbing
    the remainder (same for rows), so every map pixel is counted once.
    """
    values = grid_values(lmap.labels, grid_rows, grid_cols, lmap.params.label_count)
    return GridDescriptor(grid_rows, grid_cols, lmap.params, values)


def describe_image(
    img: GrayImage, params: LbpParams, grid_rows: int = 3, grid_cols: int = 3
) -> GridDescriptor:
    """`grid_descriptor(lbp_map(img, params), grid_rows, grid_cols)`, bit for bit,
    without the map: up to 8 neighbors the code counts of each cell fold
    through the mapping table, beyond that labels are counted (see `_coded`)."""
    values, mapping = _coded(img, params)
    table = None if mapping is None else mapping.table
    values = grid_values(values, grid_rows, grid_cols, params.label_count, table)
    return GridDescriptor(grid_rows, grid_cols, params, values)
