"""Raster type, PGM parsing, bilinear sampling, integral image tests."""

import numpy as np
import pytest

from lbpx import (
    BoundsError,
    EvalReport,
    GrayImage,
    GridDescriptor,
    IntegralImage,
    LbpMap,
    LbpParams,
    Model,
    ParameterError,
    PgmFormatError,
    bilinear_sample,
    integral_image,
    load_pgm,
    load_pgm_file,
    region_sum,
    save_pgm,
    save_pgm_file,
)

from conftest import random_image


class TestGrayImage:
    def test_shape_and_pixel_access(self):
        img = GrayImage(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8))
        assert img.width == 3
        assert img.height == 2
        assert img.pixels[1, 2] == 6
        assert img.data[1 * img.width + 2] == 6

    def test_rejects_non_2d(self):
        with pytest.raises(ParameterError):
            GrayImage(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ParameterError):
            GrayImage(np.zeros((2, 2, 3), dtype=np.uint8))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ParameterError):
            GrayImage(np.array([[0, 256]]))
        with pytest.raises(ParameterError):
            GrayImage(np.array([[-1, 0]]))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            GrayImage(np.zeros((0, 3), dtype=np.uint8))

    def test_rejects_float_values(self):
        with pytest.raises(ParameterError):
            GrayImage(np.array([[1.5, 2.0]]))

    def test_pixels_are_immutable(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_defensive_copy_of_source_array(self):
        src = np.zeros((2, 2), dtype=np.uint8)
        img = GrayImage(src)
        src[0, 0] = 99
        assert img.pixels[0, 0] == 0

    def test_equality_by_content(self):
        a = GrayImage(np.array([[1, 2]], dtype=np.uint8))
        b = GrayImage(np.array([[1, 2]], dtype=np.uint8))
        c = GrayImage(np.array([[1, 3]], dtype=np.uint8))
        assert a == b
        assert a != c
        assert a != "not an image"


class TestFrozenArrays:
    """Each constructor stores a read-only copy; the caller's array stays writable."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda a: GrayImage(a.astype(np.uint8)), "pixels"),
            (lambda a: IntegralImage(a.astype(np.int64)), "sums"),
            (lambda a: LbpMap(LbpParams(), 1, a.astype(np.int32)), "labels"),
            (lambda a: GridDescriptor(1, 1, LbpParams(), a), "values"),
            (lambda a: Model(LbpParams(), 1, 1, ("x", "y"), a), "templates"),
            (
                lambda a: EvalReport(1.0, ("x", "y"), a.astype(np.int64), 2, LbpParams(), 1, 1,
                                     "chi2"),
                "confusion",
            ),
        ],
        ids=["GrayImage", "IntegralImage", "LbpMap", "GridDescriptor", "Model", "EvalReport"],
    )
    def test_caller_array_stays_writable(self, build, field):
        src = np.ones((2, 2))
        obj = build(src)
        stored = getattr(obj, field)
        src[0, 0] = 0.0
        assert stored[0, 0] == 1
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0, 0] = 5

    def test_model_weights_are_copied(self):
        weights = np.ones(4)
        model = Model(LbpParams(), 2, 2, ("x",), np.ones((1, 8)), region_weights=weights)
        weights[0] = 3.0
        assert model.region_weights[0] == 1.0
        assert not model.region_weights.flags.writeable


class TestLoadPgm:
    def test_binary_2x2(self):
        data = b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40])
        img = load_pgm(data)
        assert img.width == 2 and img.height == 2
        assert img.pixels.tolist() == [[10, 20], [30, 40]]

    def test_ascii_2x3(self):
        img = load_pgm(b"P2\n3 2\n255\n0 128 255\n7 8 9\n")
        assert img.pixels.tolist() == [[0, 128, 255], [7, 8, 9]]

    def test_header_comments_are_skipped(self):
        data = b"P5 # magic\n# a comment line\n2 # width\n1\n255\n" + bytes([5, 6])
        img = load_pgm(data)
        assert img.pixels.tolist() == [[5, 6]]

    def test_binary_payload_may_start_with_comment_char(self):
        # after maxval exactly one whitespace byte ends the header, so a
        # payload byte of 0x23 ('#') must be read as a pixel, not a comment
        data = b"P5\n2 1\n255\n" + bytes([0x23, 7])
        assert load_pgm(data).pixels.tolist() == [[0x23, 7]]

    def test_rejects_bad_magic(self):
        with pytest.raises(PgmFormatError, match="magic"):
            load_pgm(b"P6\n1 1\n255\n\x00")

    def test_rejects_truncated_header(self):
        with pytest.raises(PgmFormatError, match="header"):
            load_pgm(b"P5\n2 2\n")

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(PgmFormatError, match="width"):
            load_pgm(b"P5\nxx 2\n255\n\x00\x00")

    def test_rejects_zero_dimension(self):
        with pytest.raises(PgmFormatError, match="dimensions"):
            load_pgm(b"P5\n0 2\n255\n")

    def test_rejects_maxval_above_255(self):
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_rejects_maxval_zero(self):
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(b"P2\n1 1\n0\n0\n")

    def test_rejects_short_binary_payload(self):
        with pytest.raises(PgmFormatError, match="truncated"):
            load_pgm(b"P5\n2 2\n255\n\x01\x02\x03")

    def test_rejects_short_ascii_payload(self):
        with pytest.raises(PgmFormatError, match="truncated"):
            load_pgm(b"P2\n2 2\n255\n1 2 3\n")

    def test_rejects_ascii_trailing_data(self):
        with pytest.raises(PgmFormatError, match="trailing"):
            load_pgm(b"P2\n1 1\n255\n4 5\n")

    def test_rejects_ascii_value_above_maxval(self):
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(b"P2\n1 1\n100\n101\n")

    def test_extra_binary_bytes_are_ignored(self):
        # P5 readers take exactly width*height bytes; some writers pad
        data = b"P5\n1 1\n255\n\x09\x00\x00"
        assert load_pgm(data).pixels.tolist() == [[9]]


class TestSavePgm:
    def test_header_layout(self):
        img = GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        data = save_pgm(img)
        assert data == b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])

    def test_round_trip_random_images(self, rng):
        for _ in range(25):
            w = int(rng.integers(1, 40))
            h = int(rng.integers(1, 40))
            img = random_image(rng, w, h)
            assert load_pgm(save_pgm(img)) == img

    def test_file_round_trip(self, tmp_path, rng):
        img = random_image(rng, 9, 5)
        path = tmp_path / "img.pgm"
        save_pgm_file(img, path)
        assert load_pgm_file(path) == img

    def test_load_file_error_includes_path(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(PgmFormatError, match="bad.pgm"):
            load_pgm_file(path)

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_pgm_file(tmp_path / "nope.pgm")


class TestBilinearSample:
    def setup_method(self):
        self.img = GrayImage(np.array([[10, 20], [30, 40]], dtype=np.uint8))

    def test_midpoint_blends_all_four(self):
        assert bilinear_sample(self.img, 0.5, 0.5) == 25.0

    def test_integer_coordinates_hit_pixels_exactly(self):
        assert bilinear_sample(self.img, 0.0, 0.0) == 10.0
        assert bilinear_sample(self.img, 1.0, 0.0) == 20.0
        assert bilinear_sample(self.img, 0.0, 1.0) == 30.0
        assert bilinear_sample(self.img, 1.0, 1.0) == 40.0

    def test_axis_aligned_blend(self):
        assert bilinear_sample(self.img, 0.5, 0.0) == 15.0
        assert bilinear_sample(self.img, 0.0, 0.5) == 20.0

    def test_integer_coordinates_exact_on_random_images(self, rng):
        img = random_image(rng, 12, 7)
        for _ in range(60):
            x = int(rng.integers(0, img.width))
            y = int(rng.integers(0, img.height))
            assert bilinear_sample(img, float(x), float(y)) == float(img.pixels[y, x])

    def test_constant_neighborhood_is_exact(self, rng):
        img = GrayImage(np.full((4, 4), 137, dtype=np.uint8))
        for _ in range(40):
            x = float(rng.uniform(0, 3))
            y = float(rng.uniform(0, 3))
            assert bilinear_sample(img, x, y) == 137.0

    def test_result_bounded_by_neighbors(self, rng):
        img = random_image(rng, 10, 10)
        for _ in range(200):
            x = float(rng.uniform(0, 9))
            y = float(rng.uniform(0, 9))
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            x1, y1 = min(x0 + 1, 9), min(y0 + 1, 9)
            corners = [
                img.pixels[y0, x0],
                img.pixels[y0, x1],
                img.pixels[y1, x0],
                img.pixels[y1, x1],
            ]
            value = bilinear_sample(img, x, y)
            assert min(corners) <= value <= max(corners)

    def test_out_of_bounds_raises(self):
        for x, y in [(-0.1, 0.0), (0.0, -0.1), (1.01, 0.0), (0.0, 1.01)]:
            with pytest.raises(BoundsError):
                bilinear_sample(self.img, x, y)

    def test_edges_of_domain_are_valid(self):
        assert bilinear_sample(self.img, 1.0, 1.0) == 40.0
        assert bilinear_sample(self.img, 0.0, 0.0) == 10.0


class TestIntegralImage:
    def test_worked_2x2(self):
        img = GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        ii = integral_image(img)
        assert ii.sums.tolist() == [[1, 3], [4, 10]]

    def test_single_pixel(self):
        ii = integral_image(GrayImage(np.array([[7]], dtype=np.uint8)))
        assert ii.sums.tolist() == [[7]]

    def test_last_entry_is_total(self, rng):
        img = random_image(rng, 17, 11)
        ii = integral_image(img)
        assert ii.sums[-1, -1] == img.pixels.astype(np.int64).sum()

    def test_monotone_along_rows_and_columns(self, rng):
        ii = integral_image(random_image(rng, 15, 9))
        assert np.all(np.diff(ii.sums, axis=0) >= 0)
        assert np.all(np.diff(ii.sums, axis=1) >= 0)

    def test_dtype_is_64_bit(self):
        # 255 * large area overflows 32-bit sums; the table must not
        img = GrayImage(np.full((300, 300), 255, dtype=np.uint8))
        ii = integral_image(img)
        assert ii.sums.dtype == np.int64
        assert ii.sums[-1, -1] == 255 * 300 * 300


class TestRegionSum:
    def test_full_region_of_worked_example(self):
        ii = integral_image(GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8)))
        assert region_sum(ii, 0, 0, 1, 1) == 10

    def test_single_pixel_regions(self):
        img = GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        ii = integral_image(img)
        for y in range(2):
            for x in range(2):
                assert region_sum(ii, x, y, x, y) == img.pixels[y, x]

    def test_matches_brute_force_on_random_rectangles(self, rng):
        img = random_image(rng, 23, 14)
        ii = integral_image(img)
        px = img.pixels.astype(np.int64)
        for _ in range(300):
            x0 = int(rng.integers(0, img.width))
            x1 = int(rng.integers(x0, img.width))
            y0 = int(rng.integers(0, img.height))
            y1 = int(rng.integers(y0, img.height))
            assert region_sum(ii, x0, y0, x1, y1) == px[y0 : y1 + 1, x0 : x1 + 1].sum()

    def test_invalid_rectangles_raise(self):
        ii = integral_image(GrayImage(np.zeros((4, 4), dtype=np.uint8)))
        for rect in [(-1, 0, 1, 1), (0, 0, 4, 1), (2, 0, 1, 1), (0, 3, 1, 1)]:
            with pytest.raises(BoundsError):
                region_sum(ii, *rect)
