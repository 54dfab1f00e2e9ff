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

from lbpx.image import _PgmScanner

from conftest import random_image

_WHITESPACE = b" \t\n\r\x0b\x0c"


# The byte-by-byte scanner that `_PgmScanner` replaced, kept verbatim as the
# oracle for its tokens, positions and error texts.
class _OracleScanner:
    """Token scanner over PNM header bytes; '#' starts a comment to end of line."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_separators(self) -> None:
        while self.pos < len(self.data):
            byte = self.data[self.pos : self.pos + 1]
            if byte in (b"#",):
                eol = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if eol < 0 else eol + 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                return

    def next_token(self, what: str) -> bytes:
        self._skip_separators()
        start = self.pos
        while self.pos < len(self.data):
            byte = self.data[self.pos : self.pos + 1]
            if byte in _WHITESPACE or byte == b"#":
                break
            self.pos += 1
        if self.pos == start:
            raise PgmFormatError(f"unexpected end of header while reading {what}")
        return self.data[start : self.pos]

    def next_int(self, what: str) -> int:
        token = self.next_token(what)
        try:
            return int(token)
        except ValueError:
            raise PgmFormatError(f"malformed {what} {token!r} in header") from None


# fragments of fuzzed headers: separators, comments, numbers good and bad
_SEPARATORS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"# note\n", b"#\n", b"#x#"]
_BAD_TOKENS = [
    b"P6", b"+2", b"-1", b"1_6", b"0x1", b"\xd9\xa3", b"\xff", b"2\xc2\xb2", b"3.0",
    b"99999999999999999999", b"256", b"0", b"007",
]
# more digits than int() reads by default (4300); drawn rarely, since the
# byte-by-byte oracle takes milliseconds to scan it
_HUGE_TOKEN = b"9" * 5000


def _fuzz_pgm(gen) -> bytes:
    """Magic, width, height, maxval and pixels, each sometimes replaced by a
    bad token, joined by 0-3 separators; then maybe cut short or ended by '#'."""
    magic = b"P5" if gen.random() < 0.5 else b"P2"
    width, height = int(gen.integers(1, 4)), int(gen.integers(1, 4))
    fields = [magic, b"%d" % width, b"%d" % height, b"%d" % gen.integers(1, 256)]
    fields += [b"%d" % gen.integers(0, 256) for _ in range(width * height)]
    parts = []
    for i, field in enumerate(fields):
        if gen.random() < 0.15:
            field = _BAD_TOKENS[gen.integers(len(_BAD_TOKENS))]
        elif gen.random() < 0.003:
            field = _HUGE_TOKEN
        parts.append(field)
        if magic == b"P5" and i == 3:
            parts.append(b"\n" + gen.bytes(int(gen.integers(0, width * height + 2))))
            break
        for _ in range(gen.integers(0 if i else 1, 4)):
            parts.append(_SEPARATORS[gen.integers(len(_SEPARATORS))])
    data = b"".join(parts)
    if gen.random() < 0.2:
        data = data[: gen.integers(0, len(data) + 1)]
    if gen.random() < 0.1:
        data += b"#"
    return data


def _scan_all(scanner) -> list:
    """Every (token, position) up to the end of data, then the error text."""
    seen = []
    while True:
        try:
            seen.append((scanner.next_token("token"), scanner.pos))
        except PgmFormatError as exc:
            return seen + [(str(exc), scanner.pos)]


def test_fuzzed_pgm_scans_like_the_oracle_and_loads_or_raises():
    gen = np.random.default_rng(20240817)
    for _ in range(3000):
        data = _fuzz_pgm(gen)
        assert _scan_all(_PgmScanner(data)) == _scan_all(_OracleScanner(data)), data
        try:
            img = load_pgm(data)
        except PgmFormatError:
            continue
        assert isinstance(img, GrayImage), data


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
            (lambda a: LbpMap(params=LbpParams(), labels=a.astype(np.int32)), "labels"),
            (lambda a: GridDescriptor(1, 1, LbpParams(), a), "values"),
            (lambda a: Model(LbpParams(), 1, 1, ("x", "y"), a), "templates"),
            (
                lambda a: EvalReport(
                    accuracy=1.0,
                    class_labels=("x", "y"),
                    confusion=a.astype(np.int64),
                    params=LbpParams(),
                    grid_rows=1,
                    grid_cols=1,
                    metric="chi2",
                ),
                "confusion",
            ),
        ],
        ids=["GrayImage", "IntegralImage", "LbpMap", "GridDescriptor", "Model", "EvalReport"],
    )
    def test_caller_array_stays_writable(self, build, field):
        # two rows of the default operator's 59 labels make valid Model templates
        src = np.ones((2, 59))
        obj = build(src)
        stored = getattr(obj, field)
        src[0, 0] = 0.0
        assert stored[0, 0] == 1
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0, 0] = 5

    def test_model_weights_are_copied(self):
        weights = np.ones(4)
        model = Model(LbpParams(), 2, 2, ("x",), np.ones((1, 4 * 59)), region_weights=weights)
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

    def test_rejects_binary_value_above_maxval(self):
        with pytest.raises(PgmFormatError, match=r"outside \[0, maxval\]"):
            load_pgm(b"P5\n4 4\n15\n" + bytes([200]) * 16)

    def test_binary_values_up_to_maxval_load(self):
        assert load_pgm(b"P5\n2 1\n15\n\x00\x0f").pixels.tolist() == [[0, 15]]

    @pytest.mark.parametrize("token", [b"+2", b"1_6", b"\xd9\xa3", b"2\xc2\xb2", b" -2"])
    def test_rejects_dimension_that_is_not_ascii_digits(self, token):
        with pytest.raises(PgmFormatError, match="malformed width"):
            load_pgm(b"P5\n" + token + b" 1\n255\n\x00\x00")

    def test_rejects_ascii_value_beyond_int64(self):
        with pytest.raises(PgmFormatError, match="outside"):
            load_pgm(b"P2\n2 1\n255\n7 99999999999999999999\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00", "malformed width"),
            (b"P5\n1 1\n" + b"9" * 5000 + b"\n\x00", "malformed maxval"),
            # a P2 value with that many digits lies far above any maxval
            (b"P2\n2 1\n255\n7 " + b"9" * 5000 + b"\n", "outside"),
        ],
    )
    def test_rejects_number_past_int_digit_limit(self, data, message):
        # int() refuses more than 4300 digits by default; that must not escape
        with pytest.raises(PgmFormatError, match=message):
            load_pgm(data)

    @pytest.mark.parametrize("data", [b"P2\n2 1\n255\n5 abc\n", b"P2\n1 1\n255\n-5\n"])
    def test_rejects_malformed_ascii_value(self, data):
        # a bad token is not a short payload
        with pytest.raises(PgmFormatError, match="malformed pixel value"):
            load_pgm(data)

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
