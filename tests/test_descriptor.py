"""Grid histogram descriptor tests."""

import tracemalloc

import numpy as np
import pytest

from lbpx import (
    GrayImage,
    GridDescriptor,
    LbpParams,
    ParameterError,
    describe_image,
    grid_descriptor,
    lbp_map,
)
from lbpx.descriptor import grid_values

from conftest import random_image


class TestGridValues:
    def test_cells_partition_row_major(self):
        # 2x2 grid over 4x4 labels, each quadrant a distinct constant
        labels = np.array(
            [
                [0, 0, 1, 1],
                [0, 0, 1, 1],
                [2, 2, 3, 3],
                [2, 2, 3, 3],
            ],
            dtype=np.int32,
        )
        values = grid_values(labels, 2, 2, 4)
        assert values.shape == (16,)
        for cell, label in enumerate([0, 1, 2, 3]):
            hist = values[cell * 4 : (cell + 1) * 4]
            assert hist[label] == 1.0 and hist.sum() == 1.0

    def test_last_cell_absorbs_remainder(self):
        # width 5 over 2 columns: cells are 2 and 3 wide
        labels = np.array([[0, 0, 1, 1, 1]], dtype=np.int32)
        values = grid_values(labels, 1, 2, 2)
        assert values[0:2].tolist() == [1.0, 0.0]
        assert values[2:4].tolist() == [0.0, 1.0]

    def test_every_pixel_counted_once(self, rng):
        labels = rng.integers(0, 10, size=(11, 13)).astype(np.int32)
        values = grid_values(labels, 3, 4, 10)
        counts = np.zeros(10)
        # recover absolute counts from per-cell normalized histograms
        edges_y = [(0, 3), (3, 6), (6, 11)]
        edges_x = [(0, 3), (3, 6), (6, 9), (9, 13)]
        idx = 0
        for y0, y1 in edges_y:
            for x0, x1 in edges_x:
                size = (y1 - y0) * (x1 - x0)
                counts += values[idx : idx + 10] * size
                idx += 10
        expected = np.bincount(labels.reshape(-1), minlength=10)
        assert np.allclose(counts, expected)

    @pytest.mark.parametrize("grid", [(0, 2), (-1, 2), (5, 1), (4096, 4096)])
    def test_bad_grid_raises_before_counting(self, grid, rng):
        # describe_image's refusal for a 4x4 map of 256 codes, the default
        # operator's, with nothing allocated for the grid
        img = GrayImage(rng.integers(0, 256, size=(6, 6)))
        expected = _outcome(lambda: describe_image(img, LbpParams(), *grid))
        labels = np.zeros((4, 4), dtype=np.int32)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError) as excinfo:
                grid_values(labels, *grid, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == expected
        assert peak < 2**20


class TestGridDescriptor:
    def test_shape_and_region_sums(self, rng):
        img = random_image(rng, 20, 17)
        desc = grid_descriptor(lbp_map(img, LbpParams()), 3, 3)
        assert desc.region_count == 9
        assert desc.bin_count == 59
        assert len(desc.values) == 9 * 59
        for r in range(9):
            assert desc.values[r * 59 : (r + 1) * 59].sum() == pytest.approx(1.0)

    def test_default_grid_is_3x3(self, rng):
        img = random_image(rng, 15, 15)
        lmap = lbp_map(img, LbpParams())
        assert grid_descriptor(lmap) == grid_descriptor(lmap, 3, 3)

    def test_1x1_grid_equals_whole_map_histogram(self, rng):
        img = random_image(rng, 12, 12)
        lmap = lbp_map(img, LbpParams(mapping="riu2"))
        desc = grid_descriptor(lmap, 1, 1)
        whole = np.bincount(lmap.labels.reshape(-1), minlength=10) / lmap.labels.size
        assert np.allclose(desc.values, whole)

    def test_carries_map_params(self, rng):
        params = LbpParams(neighbors=4, radius=1.0, sampling="circular", mapping="riu2")
        desc = grid_descriptor(lbp_map(random_image(rng, 10, 10), params), 2, 2)
        assert desc.params == params
        assert desc.bin_count == 6

    def test_grid_larger_than_map_raises(self):
        lmap = lbp_map(GrayImage(np.zeros((5, 5), dtype=np.uint8)), LbpParams())
        with pytest.raises(ParameterError):
            grid_descriptor(lmap, 4, 1)
        with pytest.raises(ParameterError):
            grid_descriptor(lmap, 1, 4)

    def test_zero_grid_raises(self, rng):
        lmap = lbp_map(random_image(rng, 8, 8), LbpParams())
        with pytest.raises(ParameterError):
            grid_descriptor(lmap, 0, 3)

    def test_equality(self, rng):
        img = random_image(rng, 10, 10)
        lmap = lbp_map(img, LbpParams())
        assert grid_descriptor(lmap, 2, 2) == grid_descriptor(lmap, 2, 2)
        assert grid_descriptor(lmap, 2, 2) != grid_descriptor(lmap, 2, 3)

    def test_values_are_immutable(self, rng):
        desc = grid_descriptor(lbp_map(random_image(rng, 8, 8), LbpParams()))
        with pytest.raises(ValueError):
            desc.values[0] = 9.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_rows": 0},
            {"grid_cols": -1},
            {"values": np.full((2, 2 * 59), 0.5)},
            {"values": np.full(5, 0.5)},
            {"values": np.full(2 * 59 + 1, 0.5)},
            {"values": np.full(2 * 59, np.nan)},
            {"values": np.r_[np.inf, np.zeros(2 * 59 - 1)]},
            {"values": np.r_[-0.25, np.zeros(2 * 59 - 1)]},
            {"values": np.r_[1.5, np.zeros(2 * 59 - 1)]},
        ],
        ids=["zero-grid", "negative-grid", "2-d-values", "short-values", "long-values",
             "nan-bin", "inf-bin", "negative-bin", "above-one-bin"],
    )
    def test_constructor_checks_invariants(self, kwargs):
        # a layout the descriptor cannot hold is refused, not given a bin count of 0
        fields = {
            "grid_rows": 1,
            "grid_cols": 2,
            "params": LbpParams(),
            "values": np.full(2 * 59, 0.5),
        }
        assert GridDescriptor(**fields).bin_count == 59
        with pytest.raises(ParameterError):
            GridDescriptor(**{**fields, **kwargs})


OPERATORS = [("square3x3", 8, 1.0)] + [
    ("circular", p, r) for p, r in [(2, 1.0), (5, 1.5), (8, 1.0), (12, 2.5), (16, 2.0), (24, 3.0)]
]
# every mapping at every operator but raw and ri at P24: 2^24 histogram bins
# per cell, and a cold 2^24-entry ri table build held for the whole session
DESCRIBE_CASES = [
    (*op, mapping)
    for op in OPERATORS
    for mapping in ("raw", "u2", "ri", "riu2")
    if not (op[1] == 24 and mapping in ("raw", "ri"))
]
# beyond 8 neighbors riu2 labels come from a bit-count rule rather than the table
DESCRIBE_CASES += [
    ("circular", p, r, "riu2")
    for p in (9, 12, 16, 24)
    for r in (1.7, 2.5, 3.0)
    if ("circular", p, r, "riu2") not in DESCRIBE_CASES
]


def _outcome(build):
    """Descriptor bytes, or the ParameterError text when the build is refused."""
    try:
        return build().values.tobytes()
    except ParameterError as exc:
        return str(exc)


class TestDescribeImage:
    """`describe_image` against the `grid_descriptor(lbp_map(...))` chain, byte for byte."""

    @pytest.mark.parametrize("sampling, neighbors, radius, mapping", DESCRIBE_CASES)
    def test_bytes_equal_chain(self, sampling, neighbors, radius, mapping, rng):
        params = LbpParams(neighbors, radius, sampling, mapping)
        o = params.origin_offset
        # a 7x9 map, then maps of one row, one column and one pixel
        for map_h, map_w in [(7, 9), (1, 6), (5, 1), (1, 1)]:
            shape = (map_h + 2 * o, map_w + 2 * o)
            images = [
                rng.integers(0, 256, size=shape),
                rng.choice([40, 41, 200], size=shape),
                np.full(shape, 77),
            ]
            for pixels in images:
                img = GrayImage(pixels)
                for rows, cols in [(1, 1), (3, 3), (2, 5), (map_h, map_w)]:
                    expected = _outcome(lambda: grid_descriptor(lbp_map(img, params), rows, cols))
                    assert _outcome(lambda: describe_image(img, params, rows, cols)) == expected

    @pytest.mark.parametrize(
        "params", [LbpParams(), LbpParams(16, 2.0, "circular", "u2"), LbpParams(mapping="raw")]
    )
    @pytest.mark.parametrize(
        "shape, grid",
        [
            ((2, 9), (1, 1)),  # too small, grid valid
            ((9, 2), (0, 0)),  # too small and zero grid: the size is reported first
            ((9, 9), (0, 3)),
            ((9, 9), (3, -1)),
            ((9, 9), (99, 1)),
            ((9, 9), (1, 99)),
        ],
    )
    def test_errors_match_chain(self, params, shape, grid, rng):
        img = GrayImage(rng.integers(0, 256, size=shape))
        expected = _outcome(lambda: grid_descriptor(lbp_map(img, params), *grid))
        assert isinstance(expected, str)
        assert _outcome(lambda: describe_image(img, params, *grid)) == expected

    def test_default_grid_and_params(self, rng):
        img = random_image(rng, 12, 10)
        desc = describe_image(img, LbpParams(mapping="riu2"))
        assert desc == grid_descriptor(lbp_map(img, LbpParams(mapping="riu2")))
        assert (desc.grid_rows, desc.grid_cols, desc.bin_count) == (3, 3, 10)
