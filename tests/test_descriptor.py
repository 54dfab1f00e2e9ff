"""Grid histogram descriptor tests."""

import numpy as np
import pytest

from lbpx import (
    BoundsError,
    CorruptMapError,
    GrayImage,
    GridDescriptor,
    LbpMap,
    LbpParams,
    ParameterError,
    grid_descriptor,
    lbp_map,
    region_histogram,
)
from lbpx.descriptor import grid_values

from conftest import random_image


def raw_map_from_labels(labels):
    """Wrap a hand-built label array in an LbpMap with a raw 8-bit label space."""
    params = LbpParams(mapping="raw")
    return LbpMap(params=params, origin_offset=1, labels=np.asarray(labels, dtype=np.int32))


class TestRegionHistogram:
    def test_counts_and_normalization(self):
        lmap = raw_map_from_labels([[0, 0, 1], [1, 1, 2], [2, 2, 2]])
        hist = region_histogram(lmap, 0, 0, 2, 2, bin_count=4, normalize=False)
        assert hist.tolist() == [2.0, 3.0, 4.0, 0.0]
        norm = region_histogram(lmap, 0, 0, 2, 2, bin_count=4)
        assert norm.tolist() == [2 / 9, 3 / 9, 4 / 9, 0.0]
        assert norm.sum() == pytest.approx(1.0)

    def test_sub_rectangle(self):
        lmap = raw_map_from_labels([[0, 1], [2, 3]])
        hist = region_histogram(lmap, 1, 0, 1, 1, bin_count=4, normalize=False)
        assert hist.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_single_pixel_region(self):
        lmap = raw_map_from_labels([[7]])
        hist = region_histogram(lmap, 0, 0, 0, 0, bin_count=8)
        assert hist[7] == 1.0 and hist.sum() == 1.0

    def test_invalid_rectangle_raises(self):
        lmap = raw_map_from_labels([[0, 1], [2, 3]])
        for rect in [(-1, 0, 1, 1), (0, 0, 2, 1), (1, 0, 0, 1), (0, 0, 1, 2)]:
            with pytest.raises(BoundsError):
                region_histogram(lmap, *rect, bin_count=4)

    def test_label_beyond_bin_count_is_reported(self):
        lmap = raw_map_from_labels([[0, 200]])
        with pytest.raises(CorruptMapError):
            region_histogram(lmap, 0, 0, 1, 0, bin_count=100)


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
        whole = region_histogram(lmap, 0, 0, lmap.width - 1, lmap.height - 1, 10)
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

    def test_json_round_trip(self, rng):
        img = random_image(rng, 14, 14)
        desc = grid_descriptor(lbp_map(img, LbpParams(mapping="riu2")), 2, 3)
        clone = GridDescriptor.from_json_dict(desc.to_json_dict())
        assert clone == desc
