"""Mapping table tests with independent bit-string oracles."""

import tracemalloc

import numpy as np
import pytest

from lbpx import (
    MAPPING_MODES,
    LbpParams,
    MappingTable,
    ParameterError,
    build_mapping,
    label_count,
    mapping,
    uniformity,
)


def bits_of(code, neighbors):
    return format(code, f"0{neighbors}b")


def transitions_oracle(code, neighbors):
    """Count 0<->1 changes by walking the circular bit string one step."""
    s = bits_of(code, neighbors)
    return sum(s[i] != s[(i + 1) % neighbors] for i in range(neighbors))


def is_uniform_oracle(code, neighbors):
    return transitions_oracle(code, neighbors) <= 2


def min_rotation_oracle(code, neighbors):
    s = bits_of(code, neighbors)
    return min(int(s[i:] + s[:i], 2) for i in range(neighbors))


def reference_table(mode, neighbors):
    """Label of every code, one code at a time, from uniformity() and bit rotations."""
    codes = range(1 << neighbors)
    if mode == "u2":
        uniform = [c for c in codes if uniformity(c, neighbors) <= 2]
        labels = {c: i for i, c in enumerate(uniform)}
        return [labels.get(c, len(uniform)) for c in codes]
    if mode == "riu2":
        return [
            bin(c).count("1") if uniformity(c, neighbors) <= 2 else neighbors + 1 for c in codes
        ]
    reps = [min_rotation_oracle(c, neighbors) for c in codes]
    labels = {r: i for i, r in enumerate(sorted(set(reps)))}
    return [labels[r] for r in reps]


class TestUniformity:
    def test_known_values(self):
        assert uniformity(0b00000000, 8) == 0
        assert uniformity(0b11111111, 8) == 0
        assert uniformity(0b00001111, 8) == 2
        assert uniformity(0b11110000, 8) == 2
        assert uniformity(0b10101010, 8) == 8
        assert uniformity(0b10110101, 8) == 6

    def test_matches_string_oracle_for_all_8bit_codes(self):
        for code in range(256):
            assert uniformity(code, 8) == transitions_oracle(code, 8)

    def test_matches_string_oracle_for_other_widths(self):
        for neighbors in (2, 4, 5, 12):
            for code in range(1 << neighbors):
                assert uniformity(code, neighbors) == transitions_oracle(code, neighbors)

    def test_rejects_out_of_range_code(self):
        with pytest.raises(ParameterError):
            uniformity(256, 8)
        with pytest.raises(ParameterError):
            uniformity(-1, 8)

    def test_rejects_bad_neighbor_count(self):
        with pytest.raises(ParameterError):
            uniformity(0, 1)
        with pytest.raises(ParameterError):
            uniformity(0, 25)


class TestRawMapping:
    def test_identity_table(self):
        table = build_mapping(8, "raw")
        assert table.label_count == 256
        assert table.table.tolist() == list(range(256))

    def test_apply_preserves_codes(self):
        table = build_mapping(8, "raw")
        codes = np.array([[0, 181], [255, 7]])
        assert table.apply(codes).tolist() == codes.tolist()


class TestU2Mapping:
    def test_label_count_8_neighbors(self):
        assert build_mapping(8, "u2").label_count == 59

    def test_uniform_codes_get_distinct_ascending_labels(self):
        table = build_mapping(8, "u2").table
        uniform_codes = [c for c in range(256) if is_uniform_oracle(c, 8)]
        labels = [int(table[c]) for c in uniform_codes]
        assert labels == list(range(len(uniform_codes)))

    def test_non_uniform_codes_share_the_last_label(self):
        table = build_mapping(8, "u2")
        for code in range(256):
            if not is_uniform_oracle(code, 8):
                assert table.table[code] == table.label_count - 1

    def test_closed_form_label_count(self):
        for neighbors in (2, 4, 6, 8, 10, 16):
            uniform = sum(is_uniform_oracle(c, neighbors) for c in range(1 << neighbors))
            assert label_count("u2", neighbors) == uniform + 1
            assert label_count("u2", neighbors) == neighbors * (neighbors - 1) + 3


class TestRiu2Mapping:
    def test_label_count_8_neighbors(self):
        assert build_mapping(8, "riu2").label_count == 10

    def test_uniform_codes_labeled_by_popcount(self):
        table = build_mapping(8, "riu2").table
        for code in range(256):
            if is_uniform_oracle(code, 8):
                assert table[code] == bin(code).count("1")
            else:
                assert table[code] == 9

    def test_rotations_share_labels(self):
        table = build_mapping(8, "riu2").table
        for code in range(256):
            s = bits_of(code, 8)
            rotated = int(s[1:] + s[:1], 2)
            assert table[code] == table[rotated]


class TestRiu2Rule:
    """`_riu2_labels`, the table-free riu2 rule, against the table built from
    the enumerated uniform codes."""

    @pytest.mark.parametrize("neighbors", range(2, 17))
    def test_every_code_matches_table(self, neighbors):
        codes = np.arange(1 << neighbors, dtype=np.uint32)
        labels = mapping._riu2_labels(codes, neighbors)
        assert labels.tolist() == build_mapping(neighbors, "riu2").table.tolist()

    @pytest.mark.parametrize("neighbors", range(17, 25))
    def test_uniform_and_random_codes_match_table(self, neighbors):
        rng = np.random.default_rng(neighbors)
        codes = np.concatenate([
            np.array(mapping._uniform_codes(neighbors), dtype=np.uint32),
            rng.integers(0, 1 << neighbors, size=1 << 16, dtype=np.uint32),
        ])
        # uncached: a 2^24-entry table would otherwise stay for the whole session
        table = build_mapping.__wrapped__(neighbors, "riu2").table
        assert mapping._riu2_labels(codes, neighbors).tolist() == table[codes].tolist()

    @pytest.mark.parametrize("neighbors", range(2, 25))
    def test_nonuniform_label_marks_more_than_two_transitions(self, neighbors):
        rng = np.random.default_rng(100 + neighbors)
        size = 1 << neighbors
        codes = np.arange(size, dtype=np.uint32)
        if size > 4096:
            uniform = np.array(mapping._uniform_codes(neighbors), dtype=np.uint32)
            codes = np.concatenate([uniform, rng.integers(0, size, size=4096, dtype=np.uint32)])
        labels = mapping._riu2_labels(codes, neighbors)
        nonuniform = [uniformity(int(c), neighbors) > 2 for c in codes]
        assert (labels == neighbors + 1).tolist() == nonuniform


class TestRiMapping:
    def test_label_count_8_neighbors(self):
        # number of binary necklaces of length 8
        assert build_mapping(8, "ri").label_count == 36

    def test_rotations_share_labels(self):
        for neighbors in (4, 8):
            table = build_mapping(neighbors, "ri").table
            for code in range(1 << neighbors):
                s = bits_of(code, neighbors)
                rotated = int(s[1:] + s[:1], 2)
                assert table[code] == table[rotated]

    def test_labels_follow_ascending_representatives(self):
        table = build_mapping(8, "ri").table
        reps = sorted({min_rotation_oracle(c, 8) for c in range(256)})
        for label, rep in enumerate(reps):
            assert table[rep] == label

    def test_closed_form_label_count_matches_table(self):
        for neighbors in range(2, 21):
            table = build_mapping(neighbors, "ri").table
            assert label_count("ri", neighbors) == len(np.unique(table)) == table.max() + 1

    def test_label_count_builds_no_table(self, monkeypatch):
        def fail(*args):
            raise AssertionError("label_count built a table")

        monkeypatch.setattr(mapping, "build_mapping", fail)
        assert label_count("ri", 24) == 699252
        assert LbpParams(24, 3.0, "circular", "ri").label_count == 699252

    def test_distinct_orbits_get_distinct_labels(self):
        table = build_mapping(6, "ri").table
        by_label = {}
        for code in range(64):
            by_label.setdefault(int(table[code]), set()).add(min_rotation_oracle(code, 6))
        for members in by_label.values():
            assert len(members) == 1


class TestTableInvariants:
    @pytest.mark.parametrize("mode", MAPPING_MODES)
    @pytest.mark.parametrize("neighbors", [2, 4, 8, 12])
    def test_labels_are_contiguous_from_zero(self, mode, neighbors):
        table = build_mapping(neighbors, mode)
        assert len(table.table) == 1 << neighbors
        used = np.unique(table.table)
        assert np.array_equal(used, np.arange(len(used)))
        assert used[-1] < table.label_count
        if mode in ("u2", "riu2") and neighbors < 4:
            # below 4 neighbors every circular code is uniform, so the
            # reserved shared bin for non-uniform codes stays empty
            assert len(used) == table.label_count - 1
        else:
            assert len(used) == table.label_count

    @pytest.mark.parametrize("mode", ["u2", "riu2", "ri"])
    def test_tables_match_reference(self, mode):
        for neighbors in range(2, 13):
            expected = reference_table(mode, neighbors)
            assert build_mapping(neighbors, mode).table.tolist() == expected

    @pytest.mark.parametrize("mode", MAPPING_MODES)
    def test_label_count_function_agrees_with_tables(self, mode):
        for neighbors in (2, 4, 8, 10):
            assert label_count(mode, neighbors) == build_mapping(neighbors, mode).label_count

    def test_tables_are_cached(self):
        assert build_mapping(8, "u2") is build_mapping(8, "u2")

    def test_table_is_immutable(self):
        table = build_mapping(8, "u2")
        with pytest.raises(ValueError):
            table.table[0] = 5

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, -1, 1]], ids=["count", "negative"])
    def test_record_rejects_labels_outside_the_label_count(self, labels):
        # the text LbpMap gives for labels outside its label space
        message = r"^labels must lie in \[0, 2\) for this configuration$"
        with pytest.raises(ParameterError, match=message):
            MappingTable(np.array(labels, dtype=np.int32), 2)

    @pytest.mark.parametrize("mode", ["u2", "raw"])
    def test_cold_p24_build_keeps_its_table_without_a_copy(self, mode):
        # a record that copied the 64 MiB table would peak near 128 MiB
        build_mapping.cache_clear()
        tracemalloc.start()
        try:
            table = build_mapping(24, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            build_mapping.cache_clear()
        assert table.table.nbytes == 64 * 2**20
        assert peak <= 1.1 * table.table.nbytes
        assert not table.table.flags.writeable

    def test_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            build_mapping(8, "u3")
        with pytest.raises(ParameterError):
            label_count("u3", 8)

    def test_rejects_bad_neighbor_counts(self):
        for neighbors in (0, 1, 25):
            with pytest.raises(ParameterError):
                build_mapping(neighbors, "u2")
