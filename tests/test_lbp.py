"""Operator tests: 3x3 codes, circular sampling geometry, whole-image maps."""

import functools
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lbpx import (
    MAPPING_MODES,
    BoundsError,
    GrayImage,
    LbpMap,
    LbpParams,
    Model,
    ParameterError,
    build_mapping,
    circular_offsets,
    describe_image,
    deserialize_model,
    lbp_code_3x3,
    lbp_code_circular,
    lbp_map,
    lbp_map_to_image,
    mapping,
    serialize_model,
)
from lbpx.lbp import _codes

from conftest import random_image

WORKED_PATCH = np.array([[6, 4, 7], [5, 5, 5], [2, 9, 3]], dtype=np.uint8)


class TestLbpParams:
    def test_defaults(self):
        p = LbpParams()
        assert (p.neighbors, p.radius, p.sampling, p.mapping) == (8, 1.0, "square3x3", "u2")

    def test_origin_offset_square(self):
        assert LbpParams().origin_offset == 1

    def test_origin_offset_circular_rounds_radius_up(self):
        assert LbpParams(sampling="circular", radius=1.0).origin_offset == 1
        assert LbpParams(sampling="circular", radius=1.5).origin_offset == 2
        assert LbpParams(sampling="circular", radius=2.0).origin_offset == 2
        assert LbpParams(sampling="circular", radius=math.sqrt(2)).origin_offset == 2

    def test_label_count_by_mapping(self):
        assert LbpParams(mapping="raw").label_count == 256
        assert LbpParams(mapping="u2").label_count == 59
        assert LbpParams(mapping="riu2").label_count == 10

    def test_square_sampling_requires_8_neighbors(self):
        with pytest.raises(ParameterError):
            LbpParams(neighbors=4, sampling="square3x3")

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            LbpParams(sampling="diamond")
        with pytest.raises(ParameterError):
            LbpParams(mapping="huffman")
        with pytest.raises(ParameterError):
            LbpParams(neighbors=1, sampling="circular")
        with pytest.raises(ParameterError):
            LbpParams(neighbors=25, sampling="circular")
        with pytest.raises(ParameterError):
            LbpParams(radius=0.0, sampling="circular")
        with pytest.raises(ParameterError):
            LbpParams(neighbors=8.5, sampling="circular")
        with pytest.raises(ParameterError):
            LbpParams(radius=65535.5, sampling="circular")
        assert LbpParams(radius=65535.0, sampling="circular").origin_offset == 65535

    def test_json_round_trip(self):
        # a model file is the one JSON that params are read back from
        cases = [LbpParams(mapping=mode) for mode in MAPPING_MODES]
        cases += [LbpParams(12, 2.5, "circular", mode) for mode in MAPPING_MODES]
        cases.append(LbpParams(24, 3.0, "circular", "riu2"))
        for params in cases:
            model = Model(params, 1, 1, ("x",), np.full((1, params.label_count), 0.5))
            assert deserialize_model(serialize_model(model)).params == params

    def test_integer_radius_in_a_model_file_reads_as_float(self):
        params = LbpParams(24, 3.0, "circular", "riu2")
        model = Model(params, 1, 1, ("x",), np.zeros((1, params.label_count)))
        doc = json.loads(serialize_model(model))
        doc["params"]["radius"] = 3
        radius = deserialize_model(json.dumps(doc)).params.radius
        assert type(radius) is float and radius == 3.0


class TestLbpCode3x3:
    def test_worked_example(self):
        # ring reads 6,4,7,5,3,9,2,5 against center 5 -> 10110101
        assert lbp_code_3x3(WORKED_PATCH) == 0b10110101 == 181

    def test_all_equal_neighbors_give_all_ones(self):
        assert lbp_code_3x3(np.full((3, 3), 9, dtype=np.uint8)) == 255

    def test_bright_center_gives_zero(self):
        patch = np.full((3, 3), 10, dtype=np.uint8)
        patch[1, 1] = 11
        assert lbp_code_3x3(patch) == 0

    def test_bit_positions_follow_clockwise_ring(self):
        ring = [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)]
        for p, (dx, dy) in enumerate(ring):
            patch = np.zeros((3, 3), dtype=np.uint8)
            patch[1, 1] = 5
            patch[1 + dy, 1 + dx] = 9
            assert lbp_code_3x3(patch) == 1 << (7 - p)

    def test_equal_neighbor_sets_its_bit(self):
        patch = np.zeros((3, 3), dtype=np.uint8)
        patch[1, 1] = 5
        patch[0, 0] = 5  # ties count as brighter
        assert lbp_code_3x3(patch) == 0b10000000

    def test_rejects_wrong_shape(self):
        with pytest.raises(ParameterError):
            lbp_code_3x3(np.zeros((2, 3), dtype=np.uint8))


class TestCircularOffsets:
    def test_8_sqrt2_lands_on_unit_pixel_ring(self):
        offsets = circular_offsets(8, math.sqrt(2))
        assert offsets == [
            (-1.0, -1.0),
            (0.0, -1.0),
            (1.0, -1.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (0.0, 1.0),
            (-1.0, 1.0),
            (-1.0, 0.0),
        ]

    def test_4_neighbors_radius_1_hits_diagonals(self):
        offsets = circular_offsets(4, 1.0)
        h = math.sqrt(2) / 2
        expected = [(-h, -h), (h, -h), (h, h), (-h, h)]
        for (dx, dy), (ex, ey) in zip(offsets, expected):
            assert dx == pytest.approx(ex, abs=1e-12)
            assert dy == pytest.approx(ey, abs=1e-12)

    def test_8_radius_1_mixes_axial_and_diagonal(self):
        offsets = circular_offsets(8, 1.0)
        assert offsets[1] == (0.0, -1.0)
        assert offsets[3] == (1.0, 0.0)
        assert offsets[5] == (0.0, 1.0)
        assert offsets[7] == (-1.0, 0.0)
        h = math.sqrt(2) / 2
        assert offsets[0] == (pytest.approx(-h), pytest.approx(-h))
        assert offsets[4] == (pytest.approx(h), pytest.approx(h))

    def test_first_offset_points_toward_top_left(self):
        for neighbors in (4, 8, 12, 16):
            dx, dy = circular_offsets(neighbors, 2.0)[0]
            assert dx < 0 and dy < 0

    def test_offsets_proceed_clockwise_on_screen(self):
        # with y down, clockwise means the polar angle increases each step
        offsets = circular_offsets(12, 2.0)
        angles = np.unwrap([math.atan2(dy, dx) for dx, dy in offsets])
        assert np.all(np.diff(angles) > 0)

    def test_every_offset_has_norm_radius(self):
        # excludes (8, sqrt(2)), which is pinned to the integer ring
        for neighbors, radius in [(4, 1.0), (8, 1.0), (8, 2.0), (12, 1.5), (16, 2.5), (24, 3.0)]:
            for dx, dy in circular_offsets(neighbors, radius):
                assert math.hypot(dx, dy) == pytest.approx(radius, abs=1e-9)

    def test_exact_lattice_hits_are_snapped(self):
        # radius sqrt(2) with 4 points lands on the diagonal pixels exactly
        assert circular_offsets(4, math.sqrt(2)) == [
            (-1.0, -1.0),
            (1.0, -1.0),
            (1.0, 1.0),
            (-1.0, 1.0),
        ]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            circular_offsets(1, 1.0)
        with pytest.raises(ParameterError):
            circular_offsets(8, 0.0)
        with pytest.raises(ParameterError):
            circular_offsets(8, -1.0)


class TestLbpCodeCircular:
    def test_worked_patch_matches_3x3_code(self):
        img = GrayImage(WORKED_PATCH)
        params = LbpParams(neighbors=8, radius=math.sqrt(2), sampling="circular", mapping="raw")
        assert lbp_code_circular(img, 1, 1, params) == 181

    def test_matches_3x3_on_random_patches(self, rng):
        params = LbpParams(neighbors=8, radius=math.sqrt(2), sampling="circular", mapping="raw")
        for _ in range(200):
            patch = rng.integers(0, 256, size=(3, 3), dtype=np.int64)
            img = GrayImage(patch)
            assert lbp_code_circular(img, 1, 1, params) == lbp_code_3x3(patch)

    def test_constant_image_gives_all_ones(self):
        img = GrayImage(np.full((7, 7), 80, dtype=np.uint8))
        for neighbors, radius in [(8, 1.0), (4, 1.0), (12, 2.5), (16, 2.0)]:
            params = LbpParams(
                neighbors=neighbors, radius=radius, sampling="circular", mapping="raw"
            )
            assert lbp_code_circular(img, 3, 3, params) == (1 << neighbors) - 1

    def test_footprint_must_stay_inside(self):
        img = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        params = LbpParams(neighbors=8, radius=2.0, sampling="circular", mapping="raw")
        assert lbp_code_circular(img, 2, 2, params) == 255
        for cx, cy in [(1, 2), (2, 1), (3, 2), (2, 3)]:
            with pytest.raises(BoundsError):
                lbp_code_circular(img, cx, cy, params)

    def test_center_outside_image_raises(self):
        img = GrayImage(np.zeros((5, 5), dtype=np.uint8))
        params = LbpParams(neighbors=4, radius=1.0, sampling="circular", mapping="raw")
        with pytest.raises(BoundsError):
            lbp_code_circular(img, 5, 2, params)


class TestLbpMap:
    def test_constant_image_square(self):
        img = GrayImage(np.full((5, 5), 33, dtype=np.uint8))
        lmap = lbp_map(img, LbpParams(mapping="raw"))
        assert lmap.width == 3 and lmap.height == 3
        assert lmap.origin_offset == 1
        assert np.all(lmap.labels == 255)

    def test_map_dimensions_shrink_by_twice_the_offset(self, rng):
        img = random_image(rng, 20, 14)
        params = LbpParams(neighbors=12, radius=2.5, sampling="circular", mapping="raw")
        lmap = lbp_map(img, params)
        assert lmap.origin_offset == 3
        assert (lmap.width, lmap.height) == (20 - 6, 14 - 6)

    def test_square_map_positions_match_scalar_codes(self, rng):
        img = random_image(rng, 12, 9)
        lmap = lbp_map(img, LbpParams(mapping="raw"))
        for y in range(lmap.height):
            for x in range(lmap.width):
                patch = img.pixels[y : y + 3, x : x + 3]
                assert lmap.labels[y, x] == lbp_code_3x3(patch)

    @pytest.mark.parametrize(
        "neighbors,radius",
        [(8, 1.0), (4, 1.0), (8, 1.5), (8, math.sqrt(2)), (12, 2.5), (16, 2.0),
         (24, 3.0), (24, 1.0), (3, 0.5), (16, 5.3)],
    )
    def test_circular_map_positions_match_scalar_codes(self, rng, neighbors, radius):
        params = LbpParams(
            neighbors=neighbors, radius=radius, sampling="circular", mapping="raw"
        )
        o = params.origin_offset
        # with three gray levels many interpolated samples land on or next to the center
        for low, high in ((0, 256), (100, 103)):
            img = random_image(rng, 2 * o + 12, 2 * o + 9, low=low, high=high)
            lmap = lbp_map(img, params)
            for y in range(lmap.height):
                for x in range(lmap.width):
                    assert lmap.labels[y, x] == lbp_code_circular(img, x + o, y + o, params)

    def test_mapping_is_applied_to_raw_codes(self, rng):
        img = random_image(rng, 10, 10)
        raw = lbp_map(img, LbpParams(mapping="raw"))
        u2 = lbp_map(img, LbpParams(mapping="u2"))
        table = build_mapping(8, "u2")
        assert np.array_equal(u2.labels, table.apply(raw.labels))

    def test_monotone_tone_curve_leaves_map_unchanged(self, rng):
        # a strictly increasing remap preserves every >= comparison
        params = LbpParams(mapping="raw")
        for _ in range(5):
            img = random_image(rng, 16, 16, low=0, high=201)
            baseline = lbp_map(img, params)
            for _ in range(3):
                lut = np.sort(rng.choice(256, size=201, replace=False)).astype(np.uint8)
                remapped = GrayImage(lut[img.pixels])
                assert np.array_equal(lbp_map(remapped, params).labels, baseline.labels)

    def test_too_small_image_raises(self):
        with pytest.raises(ParameterError):
            lbp_map(GrayImage(np.zeros((2, 5), dtype=np.uint8)), LbpParams())
        params = LbpParams(neighbors=8, radius=2.0, sampling="circular")
        with pytest.raises(ParameterError):
            lbp_map(GrayImage(np.zeros((4, 9), dtype=np.uint8)), params)

    def test_minimum_viable_image(self):
        lmap = lbp_map(GrayImage(np.zeros((3, 3), dtype=np.uint8)), LbpParams(mapping="raw"))
        assert (lmap.width, lmap.height) == (1, 1)
        assert lmap.labels[0, 0] == 255

    def test_map_equality(self, rng):
        img = random_image(rng, 8, 8)
        a = lbp_map(img, LbpParams())
        b = lbp_map(img, LbpParams())
        c = lbp_map(img, LbpParams(mapping="riu2"))
        assert a == b
        assert a != c

    def test_label_validation_rejects_out_of_range(self):
        params = LbpParams(mapping="riu2")
        with pytest.raises(ParameterError):
            LbpMap(params=params, labels=np.array([[10]]))

    @pytest.mark.parametrize("labels", [np.zeros(4), np.zeros((0, 4))], ids=["1-d", "zero-rows"])
    def test_labels_must_be_a_non_empty_2d_array(self, labels):
        with pytest.raises(ParameterError, match="non-empty 2-D"):
            LbpMap(params=LbpParams(), labels=labels)

    @pytest.mark.parametrize(
        "params, offset",
        [(LbpParams(mapping="raw"), 1), (LbpParams(radius=2.5, sampling="circular"), 3)],
        ids=["square3x3", "circular-r2.5"],
    )
    def test_origin_offset_comes_from_params(self, params, offset):
        lmap = LbpMap(params=params, labels=np.zeros((2, 3)))
        assert lmap.origin_offset == params.origin_offset == offset
        with pytest.raises(TypeError):
            LbpMap(params=params, origin_offset=offset, labels=np.zeros((2, 3)))

    def test_labels_are_immutable(self, rng):
        lmap = lbp_map(random_image(rng, 6, 6), LbpParams())
        with pytest.raises(ValueError):
            lmap.labels[0, 0] = 0


class TestFlatRunEdges:
    """The code kernel walks the flat row-major run of interior pixels and packs
    bits in 8-bit planes; these shapes and neighbor counts sit on its edges."""

    @staticmethod
    def scalar_codes(img, params):
        o = params.origin_offset
        rows, cols = range(img.height - 2 * o), range(img.width - 2 * o)
        if params.sampling == "square3x3":
            return [[lbp_code_3x3(img.pixels[y : y + 3, x : x + 3]) for x in cols] for y in rows]
        return [[lbp_code_circular(img, x + o, y + o, params) for x in cols] for y in rows]

    @pytest.mark.parametrize(
        "sampling,neighbors,radius",
        [("square3x3", 8, 1.0), ("circular", 2, 1.0), ("circular", 5, 1.7),
         ("circular", 8, 1.0), ("circular", 11, 1.3), ("circular", 12, 2.5),
         ("circular", 17, 2.0), ("circular", 24, 3.0)],
    )
    @pytest.mark.parametrize(
        "extra_cols,extra_rows", [(0, 6), (7, 0), (0, 0)],
        ids=["one-column", "one-row", "one-pixel"],
    )
    def test_raw_map_matches_scalar_codes(
        self, rng, sampling, neighbors, radius, extra_cols, extra_rows
    ):
        params = LbpParams(neighbors=neighbors, radius=radius, sampling=sampling, mapping="raw")
        side = 2 * params.origin_offset + 1
        for low, high in ((0, 256), (100, 103)):
            img = random_image(rng, side + extra_cols, side + extra_rows, low=low, high=high)
            lmap = lbp_map(img, params)
            assert lmap.labels.tolist() == self.scalar_codes(img, params)

    def test_kernel_matches_scalar_codes_on_three_level_images(self):
        # levels 0-2 put interpolated samples on or an ulp beside the center's
        # value, and radii down to 1e-9 reach the snap at both lattice ends
        rng = np.random.default_rng(2014)
        for _ in range(300):
            neighbors = int(rng.integers(2, 25))
            radius = float(10 ** rng.uniform(-9, math.log10(3)))
            params = LbpParams(neighbors, radius, "circular", "raw")
            side = 2 * params.origin_offset + 5
            img = random_image(rng, side, side, low=0, high=3)
            codes = _codes(img.pixels, params)
            assert codes.tolist() == self.scalar_codes(img, params), (neighbors, radius)

    @pytest.mark.parametrize(
        "params",
        [LbpParams(), LbpParams(neighbors=16, radius=2.0, sampling="circular", mapping="riu2")],
        ids=["square", "circular"],
    )
    def test_concurrent_maps_equal_serial_maps(self, rng, params):
        img = random_image(rng, 61, 47)
        serial = lbp_map(img, params)
        with ThreadPoolExecutor(max_workers=2) as pool:
            maps = list(pool.map(lambda _: lbp_map(img, params), range(16)))
        assert all(lmap == serial for lmap in maps)


class TestRiu2BeyondEightNeighbors:
    """Beyond 8 neighbors riu2 labels come from a bit-count rule, not a table."""

    @pytest.mark.parametrize("neighbors", [9, 12, 16, 24])
    def test_labels_equal_table_gather(self, rng, neighbors):
        # uncached: a 2^24-entry table would otherwise stay for the whole session
        table = build_mapping.__wrapped__(neighbors, "riu2")
        for radius in (1.7, 2.5, 3.0):
            params = LbpParams(neighbors, radius, "circular", "riu2")
            shape = (2 * params.origin_offset + 11, 2 * params.origin_offset + 14)
            for pixels in (rng.integers(0, 256, size=shape),
                           rng.choice([40, 41, 200], size=shape), np.full(shape, 77)):
                img = GrayImage(pixels)
                expected = table.apply(_codes(img.pixels, params))
                assert np.array_equal(lbp_map(img, params).labels, expected)

    def test_p24_builds_no_table(self, rng, monkeypatch):
        # a fresh, empty cache stands in for build_mapping's own, which
        # monkeypatch puts back untouched afterwards
        fresh = functools.lru_cache(maxsize=None)(build_mapping.__wrapped__)
        monkeypatch.setattr(mapping, "build_mapping", fresh)
        params = LbpParams(24, 3.0, "circular", "riu2")
        img = random_image(rng, 256, 256)
        tracemalloc.start()
        try:
            describe_image(img, params)
            lbp_map(img, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fresh.cache_info().currsize == 0
        assert peak < 16 << 20  # the 2^24-entry int32 table alone is 64 MB


class TestLbpMapToImage:
    def test_raw_map_exports_codes_as_pixels(self, rng):
        img = random_image(rng, 9, 9)
        lmap = lbp_map(img, LbpParams(mapping="raw"))
        out = lbp_map_to_image(lmap)
        assert np.array_equal(out.pixels, lmap.labels.astype(np.uint8))

    def test_mapped_labels_cannot_be_exported(self, rng):
        lmap = lbp_map(random_image(rng, 9, 9), LbpParams(mapping="u2"))
        with pytest.raises(ParameterError):
            lbp_map_to_image(lmap)
