"""Command-line interface tests: outputs, exit codes, determinism."""

import argparse
import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lbpx import (
    BoundsError,
    EvaluationError,
    GrayImage,
    LbpParams,
    LbpxError,
    ManifestError,
    ModelFormatError,
    ModelMismatchError,
    ParameterError,
    PgmFormatError,
    TrainingError,
    deserialize_model,
    evaluate,
    grid_descriptor,
    lbp_map,
    lbp_map_to_image,
    load_manifest_file,
    load_pgm_file,
    save_pgm,
    save_pgm_file,
)
import lbpx
from lbpx import cli, descriptor, lbp
from lbpx.cli import run_cli

from conftest import texture_image, write_texture_corpus

GOLDEN = Path(__file__).parent / "golden"


def huge_int_json(doc, where: str, indent=None) -> str:
    """`doc` as JSON with an integer literal of 5,000 digits, more than int()
    reads, at `where`: "format_version", "grid" or "template"."""
    doc = json.loads(json.dumps(doc))
    if where == "template":
        doc["classes"][0]["template"][0] = "HUGE"
    elif where == "grid":
        doc["grid"][0] = "HUGE"
    else:
        doc[where] = "HUGE"
    # json.dumps cannot write such an integer, so a placeholder stands in
    return json.dumps(doc, indent=indent).replace('"HUGE"', "9" * 5000)


def parse_outcome(parser, argv, capsys):
    """What `parser` makes of `argv`: its Namespace, or its exit code and text.
    The Namespace is compared by value reprs, since a nan flag is not equal
    to itself."""
    try:
        return {key: repr(value) for key, value in vars(parser.parse_args(argv)).items()}
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def assert_one_command_parser_agrees(argv, capsys):
    """The parser `run_cli` builds for `argv` parses it as the full one does."""
    only, full = cli.build_parser(argv[0] if argv else None), cli.build_parser()
    assert parse_outcome(only, argv, capsys) == parse_outcome(full, argv, capsys), argv


@pytest.fixture
def corpus(tmp_path, rng):
    manifest = write_texture_corpus(tmp_path, rng, 3, 2, size=32)
    return tmp_path, manifest


@pytest.fixture
def sample_image(tmp_path, rng):
    path = tmp_path / "sample.pgm"
    save_pgm_file(texture_image("checker", 24, rng), path)
    return path


class TestArgumentHandling:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert run_cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert run_cli(["transmogrify"]) == 1

    def test_unknown_flag_is_a_usage_error(self, capsys, sample_image):
        assert run_cli(["describe", "--input", str(sample_image), "--wat"]) == 1

    def test_top_level_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ["map", "describe", "train", "classify", "evaluate", "detect", "bench"]
    )
    def test_subcommand_help_exits_zero_and_lists_flags(self, capsys, command):
        assert run_cli([command, "--help"]) == 0
        text = capsys.readouterr().out
        flags = {
            "map": ["--input", "--output", "--neighbors", "--radius", "--sampling", "--mapping"],
            "describe": ["--input", "--output", "--grid"],
            "train": ["--manifest", "--output", "--grid"],
            "classify": ["--model", "--input", "--metric"],
            "evaluate": ["--manifest", "--metric", "--grid"],
            "detect": ["--scene", "--model", "--window", "--stride", "--threshold", "--nms-iou"],
            "bench": ["--input", "--iterations", "--neighbors", "--mapping"],
        }[command]
        for flag in flags:
            assert flag in text

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        assert run_cli(["map", "--output", "x.pgm"]) == 1


class TestCliTextGoldens:
    """Help and usage-error text, byte for byte, at an 80-column terminal.

    Each golden holds the exit code, stdout and stderr of one invocation;
    they were written before the parser's choices came from the library's
    mode tuples. argparse's layout differs across Python versions; these
    were written on Python 3.11.
    """

    COMMANDS = ["map", "describe", "train", "classify", "evaluate", "detect", "bench"]
    CASES = {
        "help": ["--help"],
        **{f"help_{command}": [command, "--help"] for command in COMMANDS},
        "no_arguments": [],
        "unknown_command": ["transmogrify"],
        "unknown_flag": ["describe", "--input", "in.pgm", "--wat"],
        "missing_required_flag": ["map", "--output", "out.pgm"],
        "bad_sampling": ["describe", "--input", "in.pgm", "--sampling", "hexagonal"],
        "classify_no_flags": ["classify"],
        "detect_missing_window": ["detect", "--scene", "s.pgm", "--model", "m.json"],
        "extra_argument": ["classify", "--model", "m.json", "--input", "i.pgm", "extra"],
        "bad_metric": ["evaluate", "--manifest", "m.csv", "--metric", "cosine"],
    }

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse layout is per version")
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_text_matches_golden(self, name, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code = run_cli(self.CASES[name])
        captured = capsys.readouterr()
        text = f"exit {code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"
        assert text == (GOLDEN / "cli" / f"{name}.txt").read_text()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_command_parser_agrees_with_the_full_one(self, name, capsys):
        assert_one_command_parser_agrees(self.CASES[name], capsys)

    def test_a_named_command_builds_only_its_own_subparser(self, monkeypatch, capsys):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(action, name, **kwargs):
            names.append(name)
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        assert run_cli(["classify", "--model", "none.json", "--input", "none.pgm"]) == 2
        assert names == ["classify"]
        names.clear()
        assert run_cli(["--help"]) == 0
        assert names == self.COMMANDS


class TestMapCommand:
    def test_writes_raw_label_map_pgm(self, tmp_path, sample_image):
        out = tmp_path / "out.pgm"
        code = run_cli(
            ["map", "--input", str(sample_image), "--output", str(out), "--mapping", "raw"]
        )
        assert code == 0
        expected = lbp_map_to_image(lbp_map(load_pgm_file(sample_image), LbpParams(mapping="raw")))
        assert out.read_bytes() == save_pgm(expected)

    def test_raw_map_matches_golden(self, tmp_path):
        # written when map export took only raw mapping with 8 neighbors
        out = tmp_path / "out.pgm"
        argv = ["map", "--input", str(GOLDEN / "detect_scene.pgm"), "--output", str(out),
                "--mapping", "raw"]
        assert run_cli(argv) == 0
        assert out.read_bytes() == (GOLDEN / "map_raw_p8.pgm").read_bytes()

    def test_default_flags_write_u2_labels(self, tmp_path, sample_image):
        out = tmp_path / "out.pgm"
        assert run_cli(["map", "--input", str(sample_image), "--output", str(out)]) == 0
        expected = lbp_map(load_pgm_file(sample_image), LbpParams()).labels
        assert np.array_equal(load_pgm_file(out).pixels, expected)

    def test_mapped_labels_cannot_be_exported_as_pgm(self, tmp_path, sample_image, capsys):
        out = tmp_path / "out.pgm"
        code = run_cli(["map", "--input", str(sample_image), "--output", str(out),
                        "--sampling", "circular", "--neighbors", "12", "--mapping", "ri"])
        assert code == 1
        assert capsys.readouterr().err == "lbpx: map export needs at most 256 labels, got 352\n"
        assert not out.exists()

    def test_label_space_over_256_is_refused_before_coding(self, tmp_path, sample_image,
                                                         monkeypatch, capsys):
        def never(*args):
            raise AssertionError("the image was coded")

        monkeypatch.setattr(lbp, "_coded", never)
        out = tmp_path / "out.pgm"
        flags = ["--output", str(out), "--sampling", "circular", "--neighbors", "24",
                 "--radius", "3", "--mapping", "ri"]
        assert run_cli(["map", "--input", str(sample_image)] + flags) == 1
        assert capsys.readouterr().err == "lbpx: map export needs at most 256 labels, got 699252\n"
        assert not out.exists()
        # a missing input is still reported first
        assert run_cli(["map", "--input", str(tmp_path / "none.pgm")] + flags) == 2
        assert "none.pgm" in capsys.readouterr().err

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["map", "--input", str(tmp_path / "none.pgm"), "--output", str(tmp_path / "o.pgm"),
             "--mapping", "raw"]
        )
        assert code == 2
        assert "none.pgm" in capsys.readouterr().err

    def test_corrupt_input_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9\n1 1\n255\n\x00")
        code = run_cli(
            ["map", "--input", str(bad), "--output", str(tmp_path / "o.pgm"), "--mapping", "raw"]
        )
        assert code == 2


class TestDescribeCommand:
    def test_stdout_json_matches_library_descriptor(self, sample_image, capsys):
        assert run_cli(["describe", "--input", str(sample_image)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = grid_descriptor(lbp_map(load_pgm_file(sample_image), LbpParams()), 3, 3)
        assert doc == {
            "grid": [expected.grid_rows, expected.grid_cols],
            "params": dataclasses.asdict(expected.params),
            "bins": expected.values.tolist(),
        }

    def test_output_file_written(self, tmp_path, sample_image):
        out = tmp_path / "desc.json"
        code = run_cli(
            ["describe", "--input", str(sample_image), "--output", str(out), "--grid", "2x2"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["grid"] == [2, 2]

    def test_flags_change_configuration(self, sample_image, capsys):
        code = run_cli(
            ["describe", "--input", str(sample_image), "--sampling", "circular",
             "--neighbors", "12", "--radius", "2.5", "--mapping", "riu2"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"] == {
            "neighbors": 12, "radius": 2.5, "sampling": "circular", "mapping": "riu2"
        }
        assert len(doc["bins"]) == 9 * 14

    @pytest.mark.parametrize(
        "tag, flags",
        [
            ("raw_2x2", ["--mapping", "raw", "--grid", "2x2"]),
            ("ri_3x3", ["--mapping", "ri"]),
            ("u2_2x5", ["--grid", "2x5"]),
            ("p16r2_u2_3x3", ["--sampling", "circular", "--neighbors", "16", "--radius", "2"]),
        ],
    )
    def test_output_matches_golden(self, tag, flags, tmp_path, capsys):
        # written by the lbp_map -> grid_descriptor chain; the square3x3 cases
        # fold code counts through the table, P16 gathers labels first
        golden = GOLDEN / f"describe_{tag}.json"
        argv = ["describe", "--input", str(GOLDEN / "detect_scene.pgm")] + flags
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == golden.read_text()
        assert run_cli(argv + ["--output", str(tmp_path / "desc.json")]) == 0
        assert (tmp_path / "desc.json").read_bytes() == golden.read_bytes()

    def test_output_file_peak_memory_per_value(self, tmp_path, rng):
        # 9 cells x 2^14 raw labels = 147,456 values; a list of floats plus the
        # whole document as one string costs about 117 B per value
        path = tmp_path / "image.pgm"
        save_pgm_file(GrayImage(rng.integers(0, 256, (64, 64), dtype=np.uint8)), path)
        argv = ["describe", "--input", str(path), "--output", str(tmp_path / "desc.json"),
                "--sampling", "circular", "--neighbors", "14", "--radius", "3",
                "--mapping", "raw"]
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (9 * 2**14) < 64

    def test_histogram_over_the_size_limit_exits_1_before_allocating(self, tmp_path, rng, capsys):
        # 100x100 cells x 2^20 raw labels would be a count array of 78 GiB
        path = tmp_path / "image.pgm"
        save_pgm_file(GrayImage(rng.integers(0, 256, (256, 256), dtype=np.uint8)), path)
        argv = ["describe", "--input", str(path), "--sampling", "circular", "--neighbors", "20",
                "--radius", "3", "--mapping", "raw", "--grid", "100x100"]
        tracemalloc.start()
        try:
            assert run_cli(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "lbpx: grid 100x100 needs 10,485,760,000 histogram bins, more than 16,777,216\n"
        )
        assert peak < 2**24

    def test_histogram_at_the_size_limit_still_works(self, sample_image, monkeypatch, capsys):
        # the default operator counts 256 codes in each cell before it folds them into labels
        argv = ["describe", "--input", str(sample_image)]
        monkeypatch.setattr(descriptor, "_MAX_BINS", 9 * 256)
        assert run_cli(argv) == 0
        monkeypatch.setattr(descriptor, "_MAX_BINS", 9 * 256 - 1)
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == (
            "lbpx: grid 3x3 needs 2,304 histogram bins, more than 2,303\n"
        )

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2\n3 3\n255\n" + b"7 " * 8 + b"99999999999999999999\n",
             "pixel value outside [0, maxval]"),
            (b"P5\n+3 3\n255\n" + bytes(9), "malformed width b'+3'"),
            (b"P5\n3 1_6\n255\n" + bytes(48), "malformed height b'1_6'"),
            (b"P5\n" + b"9" * 5000 + b" 3\n255\n" + bytes(9), "malformed width b'9999"),
            (b"P2\n3 3\n255\n" + b"7 " * 8 + b"9" * 5000 + b"\n",
             "pixel value outside [0, maxval]"),
            (b"P2\n2 1\n255\n5 abc\n", "malformed pixel value b'abc'"),
            (b"P2\n1 1\n255\n-5\n", "malformed pixel value b'-5'"),
            (b"P5\n4 4\n15\n" + bytes([200]) * 16, "pixel value outside [0, maxval]"),
        ],
    )
    def test_pgm_numbers_out_of_reach_exit_2(self, tmp_path, data, message, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(data)
        assert run_cli(["describe", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"{bad}: {message}" in captured.err

    def test_malformed_grid_exits_1(self, sample_image, capsys):
        assert run_cli(["describe", "--input", str(sample_image), "--grid", "3"]) == 1
        assert run_cli(["describe", "--input", str(sample_image), "--grid", "axb"]) == 1
        assert run_cli(["describe", "--input", str(sample_image), "--grid", "0x3"]) == 1

    def test_oversized_grid_exits_1(self, sample_image):
        assert run_cli(["describe", "--input", str(sample_image), "--grid", "99x99"]) == 1

    def test_invalid_params_exit_1(self, sample_image):
        code = run_cli(
            ["describe", "--input", str(sample_image), "--sampling", "circular",
             "--neighbors", "30"]
        )
        assert code == 1

    def test_infinite_radius_exits_1_without_traceback(self, sample_image, capsys):
        code = run_cli(
            ["describe", "--input", str(sample_image), "--sampling", "circular",
             "--radius", "inf"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "radius" in captured.err and "Traceback" not in captured.err

    def test_huge_radius_exits_1_with_a_short_message(self, sample_image, capsys):
        code = run_cli(
            ["describe", "--input", str(sample_image), "--sampling", "circular",
             "--radius", "1e308"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "radius" in captured.err and "Traceback" not in captured.err
        assert len(captured.err.encode()) < 200


class TestTrainCommand:
    def test_model_json_on_stdout(self, corpus, capsys):
        _, manifest = corpus
        assert run_cli(["train", "--manifest", str(manifest)]) == 0
        model = deserialize_model(capsys.readouterr().out)
        assert model.class_labels == ("checker", "flat", "hstripes", "vstripes")

    def test_model_file_written(self, corpus, tmp_path_factory):
        _, manifest = corpus
        out = tmp_path_factory.mktemp("model") / "model.json"
        assert run_cli(["train", "--manifest", str(manifest), "--output", str(out)]) == 0
        model = deserialize_model(out.read_text())
        assert model.grid_rows == 3 and model.grid_cols == 3

    def test_output_file_peak_memory_per_value(self, tmp_path, rng):
        # 2 classes x 9 cells x 2^14 raw labels = 294,912 model values; lists of
        # floats plus the whole document as one string cost about 124 B per value
        for name in ("a", "b"):
            save_pgm_file(GrayImage(rng.integers(0, 256, (64, 64), dtype=np.uint8)),
                          tmp_path / f"{name}.pgm")
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\na.pgm,a,train\nb.pgm,b,train\n", encoding="utf-8")
        argv = ["train", "--manifest", str(manifest), "--output", str(tmp_path / "model.json"),
                "--sampling", "circular", "--neighbors", "14", "--radius", "3",
                "--mapping", "raw"]
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (2 * 9 * 2**14) < 64

    def test_paths_resolve_relative_to_manifest(self, corpus):
        # invoked from a different cwd, image paths still resolve
        _, manifest = corpus
        assert run_cli(["train", "--manifest", str(manifest)]) == 0

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = run_cli(["train", "--manifest", str(tmp_path / "missing.csv")])
        assert code == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_malformed_manifest_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        assert run_cli(["train", "--manifest", str(bad)]) == 2

    def test_quoted_label_with_newline_exits_1(self, tmp_path, rng, capsys):
        save_pgm_file(texture_image("flat", 16, rng), tmp_path / "a.pgm")
        manifest = tmp_path / "m.csv"
        manifest.write_text('path,label,split\na.pgm,"a\nb",train\n', encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["train", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lbpx: ") and captured.err.count("\n") == 1

    def test_bad_label_stops_training_before_later_images_are_read(self, tmp_path, rng, capsys):
        # the second image does not exist: reading it would exit 2
        save_pgm_file(texture_image("flat", 16, rng), tmp_path / "a.pgm")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            'path,label,split\na.pgm,"a\tb",train\nmissing.pgm,b,train\n', encoding="utf-8"
        )
        capsys.readouterr()
        assert run_cli(["train", "--manifest", str(manifest)]) == 1
        assert "missing.pgm" not in capsys.readouterr().err

    def test_manifest_without_train_rows_exits_3(self, tmp_path, rng):
        save_pgm_file(texture_image("flat", 16, rng), tmp_path / "a.pgm")
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\na.pgm,flat,test\n", encoding="utf-8")
        assert run_cli(["train", "--manifest", str(manifest)]) == 3


class TestClassifyCommand:
    def test_single_training_image_classifies_itself_at_zero(self, tmp_path, rng):
        img = texture_image("checker", 24, rng)
        save_pgm_file(img, tmp_path / "happy.pgm")
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\nhappy.pgm,happy,train\n", encoding="utf-8")
        model_path = tmp_path / "model.json"
        assert run_cli(["train", "--manifest", str(manifest), "--output", str(model_path)]) == 0

        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run_cli(
                ["classify", "--model", str(model_path), "--input", str(tmp_path / "happy.pgm")]
            )
        assert code == 0
        lines = buf.getvalue().splitlines()
        assert lines[0] == "happy"
        assert lines[1] == "happy\t0.000000"

    def test_prediction_over_texture_model(self, corpus, tmp_path_factory, capsys, rng):
        base, manifest = corpus
        model_path = tmp_path_factory.mktemp("cls") / "model.json"
        run_cli(["train", "--manifest", str(manifest), "--output", str(model_path)])
        probe = tmp_path_factory.mktemp("cls2") / "probe.pgm"
        save_pgm_file(texture_image("vstripes", 32, rng), probe)
        capsys.readouterr()
        assert run_cli(["classify", "--model", str(model_path), "--input", str(probe)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "vstripes"
        assert len(lines) == 5
        for line in lines[1:]:
            label, score = line.split("\t")
            float(score)

    def test_invalid_model_file_exits_2(self, tmp_path, sample_image):
        bad = tmp_path / "model.json"
        bad.write_text("{]", encoding="utf-8")
        assert run_cli(["classify", "--model", str(bad), "--input", str(sample_image)]) == 2

    def test_image_too_small_for_model_grid_exits_1(self, corpus, tmp_path_factory, rng):
        _, manifest = corpus
        model_path = tmp_path_factory.mktemp("small") / "model.json"
        run_cli(["train", "--manifest", str(manifest), "--output", str(model_path)])
        tiny = tmp_path_factory.mktemp("small2") / "tiny.pgm"
        save_pgm_file(GrayImage(np.zeros((4, 4), dtype=np.uint8)), tiny)
        assert run_cli(["classify", "--model", str(model_path), "--input", str(tiny)]) == 1

    def test_wchi2_without_model_weights_exits_1(self, corpus, tmp_path_factory, sample_image):
        _, manifest = corpus
        model_path = tmp_path_factory.mktemp("w") / "model.json"
        run_cli(["train", "--manifest", str(manifest), "--output", str(model_path)])
        code = run_cli(
            ["classify", "--model", str(model_path), "--input", str(sample_image),
             "--metric", "wchi2"]
        )
        assert code == 1

    def test_wchi2_exits_1_before_reading_the_image(self, tmp_path, capsys):
        # the golden model has no region weights; the image does not exist
        model = GOLDEN / "train_u2.json"
        argv = ["classify", "--model", str(model), "--input", str(tmp_path / "ghost.pgm")]
        capsys.readouterr()
        assert run_cli(argv + ["--metric", "wchi2"]) == 1
        assert capsys.readouterr().err == "lbpx: wchi2 requires region weights\n"
        assert run_cli(argv) == 2


    @pytest.mark.parametrize(
        "field, value",
        [("template", float("nan")), ("template", float("inf")), ("template", -0.5),
         ("weights", [1.0, 1.0, 1.0]), ("weights", [float("inf")] + [1.0] * 8),
         ("neighbors", 8.9), ("neighbors", "8"), ("neighbors", True), ("radius", "1.5"),
         ("grid", [3.7, "3"]), ("template", "0.25"), ("template", True),
         ("weights", ["1"] + [1.0] * 8), ("weights", [True] + [1.0] * 8), ("label", 5),
         ("mapping", "riu2"), ("label", ""), ("label", "a\nb"), ("label", "a\rb"),
         ("label", "a\tb"), ("mapping", 5), ("sampling", None)],
        ids=["nan-bin", "inf-bin", "negative-bin", "3-weights-on-3x3", "inf-weight",
             "fractional-neighbors", "string-neighbors", "bool-neighbors", "string-radius",
             "non-integer-grid", "string-bin", "bool-bin", "string-weight", "bool-weight",
             "integer-label", "template-length-vs-labels", "empty-label", "newline-label",
             "carriage-return-label", "tab-label", "integer-mapping", "null-sampling"],
    )
    def test_invalid_model_values_exit_2(self, field, value, tmp_path, sample_image, capsys):
        # each of these once loaded (int()/float()/str() coerced them) or exited 1 or 3
        doc = json.loads((GOLDEN / "train_u2.json").read_text())
        if field == "template":
            doc["classes"][1]["template"][7] = value
        elif field == "label":
            doc["classes"][0]["label"] = value
        elif field in doc["params"]:
            doc["params"][field] = value
        else:
            doc[field] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["classify", "--model", str(bad), "--input", str(sample_image)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lbpx: ")


class TestUnreadableInputs:
    """Files that cannot be read or parsed end in one `lbpx:` line and exit 2."""

    def run(self, argv, capsys):
        capsys.readouterr()
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("lbpx: ") and captured.err.count("\n") == 1
        return captured.err

    def test_non_utf8_model_file(self, tmp_path, sample_image, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b'{"format_version": 1, "label": "\xff"}')
        err = self.run(["classify", "--model", str(model), "--input", str(sample_image)], capsys)
        assert "UTF-8" in err

    def test_non_utf8_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"path,label,split\n\xe9t\xe9.pgm,a,train\n")
        assert "UTF-8" in self.run(["train", "--manifest", str(manifest)], capsys)

    def test_deeply_nested_model_file(self, tmp_path, sample_image, capsys):
        model = tmp_path / "model.json"
        model.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        err = self.run(["classify", "--model", str(model), "--input", str(sample_image)], capsys)
        assert "nested" in err

    @pytest.mark.parametrize("field", ["format_version", "grid", "template"])
    def test_model_integer_past_int_digit_limit(self, field, tmp_path, sample_image, capsys):
        # json.loads raises a plain ValueError for an integer int() will not read
        doc = json.loads((GOLDEN / "train_u2.json").read_text())
        model = tmp_path / "model.json"
        model.write_text(huge_int_json(doc, field), encoding="utf-8")
        err = self.run(["classify", "--model", str(model), "--input", str(sample_image)], capsys)
        assert "cannot be parsed as JSON" in err and "Traceback" not in err

    def test_manifest_path_with_nul_byte(self, tmp_path, capsys):
        err = self.run(["evaluate", "--manifest", str(tmp_path / "m\0.csv")], capsys)
        assert "null byte" in err


class TestEvaluateCommand:
    def test_report_matches_library_evaluation(self, corpus, capsys):
        base, manifest = corpus
        assert run_cli(["evaluate", "--manifest", str(manifest)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = evaluate(load_manifest_file(manifest), LbpParams(), base_dir=base)
        assert doc == {
            "accuracy": expected.accuracy,
            "n_test": expected.n_test,
            "classes": list(expected.class_labels),
            "confusion": expected.confusion.tolist(),
            "fps": None,
            "config": {**dataclasses.asdict(LbpParams()), "grid": [3, 3], "metric": "chi2"},
        }
        assert doc["accuracy"] == 1.0

    def test_report_written_to_file(self, corpus, tmp_path_factory):
        _, manifest = corpus
        out = tmp_path_factory.mktemp("rep") / "report.json"
        assert run_cli(["evaluate", "--manifest", str(manifest), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == ["accuracy", "n_test", "classes", "confusion", "fps", "config"]

    def test_unseen_test_label_exits_3(self, tmp_path, rng, capsys):
        save_pgm_file(texture_image("flat", 16, rng), tmp_path / "a.pgm")
        save_pgm_file(texture_image("checker", 16, rng), tmp_path / "b.pgm")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "path,label,split\na.pgm,flat,train\nb.pgm,checker,test\n", encoding="utf-8"
        )
        assert run_cli(["evaluate", "--manifest", str(manifest)]) == 3

    def test_wchi2_exits_1_before_reading_any_image(self, tmp_path, capsys):
        # the model evaluate trains has no region weights; the images do not exist
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "path,label,split\nghost-a.pgm,a,train\nghost-b.pgm,a,test\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert run_cli(["evaluate", "--manifest", str(manifest), "--metric", "wchi2"]) == 1
        assert capsys.readouterr().err.endswith(
            "invalid choice: 'wchi2' (choose from 'chi2', 'intersect', 'l1')\n"
        )


class TestDetectCommand:
    @pytest.fixture
    def detection_setup(self, tmp_path, rng):
        y, x = np.mgrid[0:16, 0:16]
        patch = np.where((x + y) % 2 == 0, 60, 180).astype(np.uint8)
        scene_px = rng.integers(100, 140, size=(48, 48), dtype=np.int64).astype(np.uint8)
        scene_px[8:24, 20:36] = patch
        scene_path = tmp_path / "scene.pgm"
        save_pgm_file(GrayImage(scene_px), scene_path)
        patch_path = tmp_path / "patch.pgm"
        save_pgm_file(GrayImage(patch), patch_path)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\npatch.pgm,target,train\n", encoding="utf-8")
        model_path = tmp_path / "model.json"
        run_cli(["train", "--manifest", str(manifest), "--output", str(model_path)])
        return scene_path, model_path

    def test_detects_planted_patch(self, detection_setup, capsys):
        scene_path, model_path = detection_setup
        capsys.readouterr()
        code = run_cli(
            ["detect", "--scene", str(scene_path), "--model", str(model_path),
             "--window", "16x16", "--stride", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        first = json.loads(lines[0])
        assert set(first) == {"x", "y", "w", "h", "score"}
        assert (first["x"], first["y"]) == (20, 8)
        assert first["w"] == 16 and first["h"] == 16

    def test_scores_ascending_and_formatted(self, detection_setup, capsys):
        scene_path, model_path = detection_setup
        capsys.readouterr()
        run_cli(
            ["detect", "--scene", str(scene_path), "--model", str(model_path),
             "--window", "16x16", "--stride", "4", "--nms-iou", "0.2"]
        )
        lines = capsys.readouterr().out.splitlines()
        scores = [json.loads(line)["score"] for line in lines]
        assert scores == sorted(scores)
        for line in lines:
            raw_score = line.split('"score":')[1].rstrip("}")
            whole, frac = raw_score.split(".")
            assert len(frac) == 6

    def test_threshold_keeps_only_close_windows(self, detection_setup, capsys):
        scene_path, model_path = detection_setup
        capsys.readouterr()
        run_cli(
            ["detect", "--scene", str(scene_path), "--model", str(model_path),
             "--window", "16x16", "--stride", "2", "--threshold", "0.5"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["score"] <= 0.5

    def test_output_file_written(self, detection_setup, tmp_path_factory):
        scene_path, model_path = detection_setup
        out = tmp_path_factory.mktemp("det") / "hits.jsonl"
        code = run_cli(
            ["detect", "--scene", str(scene_path), "--model", str(model_path),
             "--window", "16x16", "--stride", "4", "--output", str(out)]
        )
        assert code == 0
        for line in out.read_text().splitlines():
            json.loads(line)

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_invalid_threshold_exits_1(self, detection_setup, value, capsys):
        scene_path, model_path = detection_setup
        capsys.readouterr()
        code = run_cli(
            ["detect", "--scene", str(scene_path), "--model", str(model_path),
             "--window", "16x16", f"--threshold={value}"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold" in captured.err

    def test_invalid_nms_iou_after_valid_scan_exits_1(self, detection_setup, capsys):
        scene_path, model_path = detection_setup
        capsys.readouterr()
        code = run_cli(
            ["detect", "--scene", str(scene_path), "--model", str(model_path),
             "--window", "16x16", "--stride", "4", "--nms-iou", "1.5"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lbpx: iou threshold must lie in [0, 1], got 1.5\n"

    DETECT_GOLDENS = [
        ("u2", "24x24", 8, "0.3"), ("u2", "24x24", 4, "0.3"), ("u2", "24x24", 1, "0.3"),
        ("riu2", "28x20", 3, "0.3"), ("p16r2_riu2", "24x24", 2, "0.3"),
        ("u2_2x2", "64x64", 3, "1"),
    ]

    @pytest.mark.parametrize(
        "tag, window, stride, nms_iou",
        DETECT_GOLDENS,
        ids=[f"{tag}-{window}-{stride}" for tag, window, stride, _ in DETECT_GOLDENS],
    )
    def test_output_matches_golden(self, tag, window, stride, nms_iou, capsys):
        # goldens were written by the per-window scan (one histogram and one
        # distance call per window) and its list-based NMS; the circular P16 R2
        # riu2 one when its labels were still gathered from the 2^16-entry table.
        # The u2_2x2 model was trained on detect_scene.pgm[8:72, 20:84]; its
        # 31x31 cells hold 961 pixels, more than a uint8 count holds, and all
        # 66 windows print, with 66 distinct scores, by the summed-area scan
        capsys.readouterr()
        code = run_cli(
            ["detect", "--scene", str(GOLDEN / "detect_scene.pgm"),
             "--model", str(GOLDEN / f"detect_model_{tag}.json"),
             "--window", window, "--stride", str(stride), "--nms-iou", nms_iou]
        )
        assert code == 0
        expected = (GOLDEN / f"detect_{tag}_{window}_s{stride}.jsonl").read_text()
        assert capsys.readouterr().out == expected

    def test_huge_stride_prints_the_one_window(self, detection_setup, capsys):
        # 10^30 does not fit in an int64; any stride above 32 leaves one window
        scene_path, model_path = detection_setup
        outputs = []
        for stride in ("1000", "1" + "0" * 30):
            capsys.readouterr()
            code = run_cli(
                ["detect", "--scene", str(scene_path), "--model", str(model_path),
                 "--window", "16x16", "--stride", stride]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1

    def test_template_length_not_matching_labels_exits_2(self, tmp_path, capsys):
        # a u2 template (9 x 59 bins) declared riu2 (9 x 10) once exited 1 from the scan
        doc = json.loads((GOLDEN / "detect_model_u2.json").read_text())
        doc["params"]["mapping"] = "riu2"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(
            ["detect", "--scene", str(GOLDEN / "detect_scene.pgm"), "--model", str(model),
             "--window", "24x24"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("lbpx: invalid model file: ")

    def test_bad_window_argument_exits_1(self, detection_setup):
        scene_path, model_path = detection_setup
        code = run_cli(
            ["detect", "--scene", str(scene_path), "--model", str(model_path),
             "--window", "16"]
        )
        assert code == 1

    def test_multi_class_model_exits_3(self, corpus, tmp_path_factory, rng):
        base, manifest = corpus
        model_path = tmp_path_factory.mktemp("mc") / "model.json"
        run_cli(["train", "--manifest", str(manifest), "--output", str(model_path)])
        scene = tmp_path_factory.mktemp("mc2") / "scene.pgm"
        save_pgm_file(texture_image("flat", 32, rng), scene)
        code = run_cli(
            ["detect", "--scene", str(scene), "--model", str(model_path), "--window", "16x16"]
        )
        assert code == 3


class TestClassificationGoldens:
    """Byte equality with outputs written by the per-class distance loop.

    The corpus is 24 seeded 20x20 noisy textures; "riu2" is circular P8 R1.5
    sampling with the riu2 mapping, "u2" the default operator. The wchi2
    model is the trained one plus the weights below. The circular P16 R2 u2
    and P24 R3 riu2 train goldens were written by the per-sample-temporary
    circular kernel and the 2^P-pass table builds.
    """

    CORPUS = GOLDEN / "corpus"
    FLAGS = {
        "u2": [],
        "riu2": ["--sampling", "circular", "--neighbors", "8", "--radius", "1.5",
                 "--mapping", "riu2"],
        "p16r2_u2": ["--sampling", "circular", "--neighbors", "16", "--radius", "2",
                     "--mapping", "u2"],
        "p24r3_riu2": ["--sampling", "circular", "--neighbors", "24", "--radius", "3",
                       "--mapping", "riu2"],
    }
    WEIGHTS = [1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]

    def output(self, argv, capsys):
        capsys.readouterr()
        assert run_cli(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("tag", ["u2", "riu2", "p16r2_u2", "p24r3_riu2"])
    def test_train_matches_golden(self, tag, capsys):
        out = self.output(
            ["train", "--manifest", str(self.CORPUS / "manifest.csv")] + self.FLAGS[tag], capsys
        )
        assert out == (GOLDEN / f"train_{tag}.json").read_text()

    @pytest.mark.parametrize("tag", ["u2", "riu2", "p16r2_u2", "p24r3_riu2"])
    def test_train_output_file_matches_golden(self, tag, tmp_path, capsys):
        out = tmp_path / "model.json"
        argv = ["train", "--manifest", str(self.CORPUS / "manifest.csv"), "--output", str(out)]
        assert self.output(argv + self.FLAGS[tag], capsys) == ""
        assert out.read_bytes() == (GOLDEN / f"train_{tag}.json").read_bytes()

    @pytest.mark.parametrize("metric", ["chi2", "intersect", "l1"])
    @pytest.mark.parametrize("tag", ["u2", "riu2"])
    def test_evaluate_matches_golden(self, tag, metric, tmp_path, capsys):
        golden = GOLDEN / f"evaluate_{tag}_{metric}.json"
        argv = ["evaluate", "--manifest", str(self.CORPUS / "manifest.csv"), "--metric", metric]
        argv += self.FLAGS[tag]
        assert self.output(argv, capsys) == golden.read_text()
        self.output(argv + ["--output", str(tmp_path / "report.json")], capsys)
        assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("metric", ["chi2", "wchi2", "intersect", "l1"])
    @pytest.mark.parametrize("tag", ["u2", "riu2"])
    def test_classify_matches_golden(self, tag, metric, tmp_path, capsys):
        model = GOLDEN / f"train_{tag}.json"
        if metric == "wchi2":
            doc = json.loads(model.read_text())
            doc["weights"] = self.WEIGHTS
            model = tmp_path / "weighted.json"
            model.write_text(json.dumps(doc), encoding="utf-8")
        rows = (self.CORPUS / "manifest.csv").read_text().splitlines()[1:]
        tests = [row.split(",")[0] for row in rows if row.endswith(",test")]
        out = "".join(
            self.output(
                ["classify", "--model", str(model), "--input", str(self.CORPUS / name),
                 "--metric", metric],
                capsys,
            )
            for name in tests
        )
        assert out == (GOLDEN / f"classify_{tag}_{metric}.txt").read_text()


class TestBenchCommand:
    def test_reports_throughput_json(self, sample_image, capsys):
        code = run_cli(
            ["bench", "--input", str(sample_image), "--iterations", "3", "--mapping", "raw"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["fps", "ms_per_frame", "iterations", "image", "config"]
        assert doc["iterations"] == 3
        assert doc["fps"] > 0
        assert doc["image"] == [24, 24]
        assert doc["config"]["sampling"] == "square3x3"

    def test_threads_flag_is_a_usage_error(self, sample_image, capsys):
        assert run_cli(["bench", "--input", str(sample_image), "--threads", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--threads" in captured.err

    def test_bad_iteration_count_exits_1(self, sample_image):
        assert run_cli(["bench", "--input", str(sample_image), "--iterations", "0"]) == 1


# the exit-code table in README.md
EXIT_CODES = {
    LbpxError: 1,
    ParameterError: 1,
    BoundsError: 1,
    TrainingError: 1,
    PgmFormatError: 2,
    ManifestError: 2,
    ModelFormatError: 2,
    ModelMismatchError: 3,
    EvaluationError: 3,
}


class TestExitCodes:
    def test_every_error_class_is_pinned(self):
        assert {LbpxError, *LbpxError.__subclasses__()} == set(EXIT_CODES)

    @pytest.mark.parametrize(
        "error, code", list(EXIT_CODES.items()), ids=[e.__name__ for e in EXIT_CODES]
    )
    def test_run_cli_returns_the_error_exit_code(self, error, code, monkeypatch, capsys):
        assert error.exit_code == code

        def fail(args):
            raise error("boom")

        help_text, add_flags, _ = cli._COMMANDS["map"]
        monkeypatch.setitem(cli._COMMANDS, "map", (help_text, add_flags, fail))
        assert run_cli(["map", "--input", "in.pgm", "--output", "out.pgm"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lbpx: boom\n"


class TestDeterminism:
    def run_twice(self, argv, capsys):
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        return first, second

    def test_describe_runs_are_byte_identical(self, sample_image, capsys):
        first, second = self.run_twice(["describe", "--input", str(sample_image)], capsys)
        assert first == second

    def test_train_runs_are_byte_identical(self, corpus, capsys):
        _, manifest = corpus
        first, second = self.run_twice(["train", "--manifest", str(manifest)], capsys)
        assert first == second

    def test_evaluate_runs_are_byte_identical(self, corpus, capsys):
        _, manifest = corpus
        first, second = self.run_twice(["evaluate", "--manifest", str(manifest)], capsys)
        assert first == second

    def test_map_runs_are_byte_identical(self, tmp_path, sample_image):
        out1 = tmp_path / "a.pgm"
        out2 = tmp_path / "b.pgm"
        argv = ["map", "--input", str(sample_image), "--mapping", "raw", "--output"]
        assert run_cli(argv + [str(out1)]) == 0
        assert run_cli(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_detect_runs_are_byte_identical(self, tmp_path, rng, capsys):
        scene = tmp_path / "scene.pgm"
        save_pgm_file(texture_image("checker", 32, rng), scene)
        patch = tmp_path / "patch.pgm"
        save_pgm_file(texture_image("checker", 16, rng), patch)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\npatch.pgm,t,train\n", encoding="utf-8")
        model = tmp_path / "model.json"
        run_cli(["train", "--manifest", str(manifest), "--output", str(model)])
        capsys.readouterr()
        argv = ["detect", "--scene", str(scene), "--model", str(model),
                "--window", "16x16", "--stride", "4"]
        first, second = self.run_twice(argv, capsys)
        assert first == second


class TestFuzz:
    """Seeded mutations of manifests, model JSON and numeric flags: every run
    exits 0-3 without a traceback, and the same argv gives the same bytes."""

    # at most 16 valid neighbors: a P24 table takes up to seconds to build
    FLAG_VALUES = {
        "--neighbors": ["-1", "0", "1", "2", "4", "8", "12", "16", "25", "8.0", "x", ""],
        "--radius": ["-1", "0", "0.5", "1", "1.5", "2.5", "7", "1e308", "nan", "inf", "x"],
        "--sampling": ["square3x3", "circular"],
        "--mapping": ["raw", "u2", "ri", "riu2"],
        # 4096x4096 needs more than the 2^24 histogram bins allowed, at any operator
        "--grid": ["1x1", "2x3", "3x3", "0x3", "3", "axb", "-1x2", "1x2x3", "99x99", "9" * 30,
                   "4096x4096"],
        "--window": ["8x8", "12x6", "16x16", "1x1", "0x4", "4x", "99x99", "8X8", "9" * 30 + "x8"],
        "--stride": ["1", "3", "8", "0", "-2", "x", "9" * 30],
        "--threshold": ["inf", "-inf", "nan", "0", "0.5", "3", "1e400", "x"],
        "--nms-iou": ["0", "0.3", "1", "-0.5", "2", "nan", "x"],
        "--metric": ["chi2", "wchi2", "intersect", "l1"],
    }
    PARAMS_FLAGS = ["--neighbors", "--radius", "--sampling", "--mapping"]
    JUNK = [None, True, -1, 0, 2, 1.5, 1e308, 10**30, "", "x", "a\tb", [], [1], {}]

    @pytest.fixture
    def inputs(self, tmp_path, rng, capsys):
        manifest = write_texture_corpus(tmp_path, rng, 1, 1, size=16)
        scene = tmp_path / "scene.pgm"
        save_pgm_file(texture_image("checker", 24, rng), scene)
        one_class = tmp_path / "one.csv"
        one_class.write_text("path,label,split\nchecker_train_0.pgm,t,train\n", encoding="utf-8")
        models = {}
        for name, source in (("m", manifest), ("d", one_class)):
            assert run_cli(["train", "--manifest", str(source)]) == 0
            models[name] = json.loads(capsys.readouterr().out)
        return tmp_path, manifest.read_text(), scene, models

    def pick(self, rng, values):
        return values[int(rng.integers(len(values)))]

    def flags(self, rng, names):
        argv = []
        for name in names:
            if rng.random() < 0.3:
                argv += [name, self.pick(rng, self.FLAG_VALUES[name])]
        return argv

    def mutate_manifest(self, rng, text):
        lines = text.splitlines()
        kind = int(rng.integers(9))
        row = 1 + int(rng.integers(len(lines) - 1))
        if kind == 0:
            lines[0] = self.pick(rng, ["", "path,label", "label,path,split", "path,label,split,x"])
        elif kind == 1:
            fields = lines[row].split(",")
            lines[row] = ",".join(fields + ["x"] if rng.random() < 0.5 else fields[:2])
        elif kind == 2:
            path, label, split = lines[row].split(",")
            lines[row] = ",".join([path, self.pick(rng, ["", " ", "a\tb", label]), split])
        elif kind == 3:
            path, label, _ = lines[row].split(",")
            lines[row] = ",".join([path, label, self.pick(rng, ["", "val", "TRAIN"])])
        elif kind == 4:
            lines.append(lines[row])
        elif kind == 5:
            path, label, split = lines[row].split(",")
            lines[row] = ",".join([self.pick(rng, ["none.pgm", "one.csv", "", "."]), label, split])
        elif kind == 6:
            split = self.pick(rng, ["train", "test"])
            lines = [line for line in lines if not line.endswith("," + split)]
        elif kind == 7:
            path, _, split = lines[row].split(",")
            lines[row] = ",".join([path, "unseen", split])
        text = "\n".join(lines) + "\n"
        data = text.encode("utf-8")
        if kind == 8:
            cut = int(rng.integers(len(data)))
            data = data[:cut] + self.pick(rng, [b"", b"\xff", b'"', b"\x00"]) + data[cut + 1 :]
        return data

    def mutate_model(self, rng, doc):
        """Mutated model bytes, and whether they must exit 2 whatever else is wrong."""
        doc = json.loads(json.dumps(doc))
        kind = int(rng.integers(9))
        if kind == 0:
            del doc[self.pick(rng, sorted(doc))]
        elif kind == 1:
            doc[self.pick(rng, sorted(doc))] = self.pick(rng, self.JUNK)
        elif kind == 2:
            key = self.pick(rng, sorted(doc["params"]))
            doc["params"][key] = self.pick(
                rng, self.JUNK + [4, 8, 16, "raw", "u2", "ri", "riu2", "circular"]
            )
        elif kind == 3:
            entry = self.pick(rng, doc["classes"])
            entry[self.pick(rng, ["label", "template"])] = self.pick(rng, self.JUNK)
        elif kind == 4:
            template = self.pick(rng, doc["classes"])["template"]
            i = int(rng.integers(len(template)))
            template[i] = self.pick(rng, self.JUNK + [float("nan"), float("inf"), -0.5])
        elif kind == 5:
            doc["grid"] = [self.pick(rng, self.JUNK + [1, 3]) for _ in range(2)]
        elif kind == 6:
            weights = [[1.0] * 9, [1e308] * 9, [1.0] * 3, [-1.0] * 9, "x", None]
            doc["weights"] = self.pick(rng, weights)
        elif kind == 8:
            key = self.pick(rng, ["sampling", "mapping"])
            doc["params"][key] = self.pick(rng, [v for v in self.JUNK if type(v) is not str])
        if kind == 7:
            where = self.pick(rng, ["format_version", "grid", "template"])
            data = huge_int_json(doc, where, indent=1).encode("utf-8")
        else:
            data = json.dumps(doc, indent=1).encode("utf-8")
        if rng.random() < 0.2:
            data = data[: int(rng.integers(len(data)))]
        return data, kind >= 7

    def case(self, rng, i, inputs):
        root, manifest_text, scene, models = inputs
        command = self.pick(rng, ["map", "describe", "train", "classify", "evaluate", "detect"])
        if command in ("map", "describe"):
            argv = [command, "--input", str(scene)]
            if command == "map":  # only raw labels export as PGM
                argv += ["--output", str(root / "out.pgm"), "--mapping", "raw"]
            grid = ["--grid"] if command == "describe" else []
            argv += self.flags(rng, self.PARAMS_FLAGS + grid)
        elif command in ("train", "evaluate"):
            manifest = root / f"case{i}.csv"
            data = manifest_text.encode()
            if rng.random() < 0.6:
                data = self.mutate_manifest(rng, manifest_text)
            manifest.write_bytes(data)
            argv = [command, "--manifest", str(manifest)]
            argv += self.flags(rng, self.PARAMS_FLAGS + ["--grid"])
            if command == "evaluate":
                argv += self.flags(rng, ["--metric"])
        else:
            model = root / f"case{i}.json"
            # detect takes a one-class model; the other one is a mismatch (exit 3)
            doc = models["m" if (command == "classify") == (rng.random() < 0.8) else "d"]
            data, malformed = json.dumps(doc).encode(), False
            if rng.random() < 0.6:
                data, malformed = self.mutate_model(rng, doc)
            model.write_bytes(data)
            if command == "classify":
                argv = ["classify", "--model", str(model), "--input", str(scene)]
                argv += self.flags(rng, ["--metric"])
            else:
                window = self.pick(rng, self.FLAG_VALUES["--window"])
                if rng.random() < 0.5:
                    window = "8x8"
                argv = ["detect", "--scene", str(scene), "--model", str(model), "--window", window]
                argv += self.flags(rng, ["--stride", "--threshold", "--nms-iou"])
            # classify's flags always parse, and it reads the model before the image
            return argv, 2 if malformed and command == "classify" else None
        return argv, None

    def cases(self, inputs):
        rng = np.random.default_rng(11)
        return [self.case(rng, i, inputs) for i in range(200)]

    def test_one_command_parser_agrees_with_the_full_one(self, inputs, capsys):
        for argv, _ in self.cases(inputs):
            assert_one_command_parser_agrees(argv, capsys)

    def test_mutated_inputs_exit_cleanly_and_repeat(self, inputs, capsys):
        codes = set()
        for argv, expected in self.cases(inputs):
            runs = []
            for _ in range(2):
                code = run_cli(argv)
                captured = capsys.readouterr()
                runs.append((code, captured.out, captured.err))
            code, _, err = runs[0]
            assert code in (0, 1, 2, 3), argv
            assert expected in (None, code), argv
            assert "Traceback" not in err, argv
            assert runs[0] == runs[1], argv
            codes.add(code)
        # the mutations reach success and every kind of failure
        assert codes == {0, 1, 2, 3}


def test_cli_import_skips_thread_pool_module():
    code = "import sys, lbpx.cli; print('concurrent.futures' in sys.modules)"
    # the caller's environment, so PYTHONDONTWRITEBYTECODE still holds in the child
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "False\n"


def test_src_has_no_unused_imports():
    # catches what a deletion leaves behind; in __init__ a name in __all__ is read
    unused = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_src_raises_each_message_from_one_function():
    # a rule written twice shows up as one message raised from two functions;
    # f-string fields compare as placeholders, and a raise belongs to its
    # innermost function, so one function may raise a message twice
    def text(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return "".join(text(v) if isinstance(v, ast.Constant) else "{}" for v in node.values)
        return None

    owners = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                message = text(child.exc.args[0]) if child.exc.args else None
                if message is not None:
                    owners.setdefault(message, set()).add(owner)
            visit(child, owner)

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert {m: sorted(o) for m, o in owners.items() if len(o) > 1} == {}


def test_public_names_are_pinned():
    assert sorted(lbpx.__all__) == [
        "BenchmarkResult", "BoundsError", "Detection", "EvalReport", "EvaluationError",
        "GrayImage", "GridDescriptor", "IntegralImage", "LbpMap", "LbpParams", "LbpxError",
        "MAPPING_MODES", "METRICS", "Manifest", "ManifestEntry", "ManifestError",
        "MappingTable", "Model", "ModelFormatError", "ModelMismatchError", "ParameterError",
        "PgmFormatError", "TrainingError", "benchmark_fps", "build_mapping",
        "build_templates", "circular_offsets", "describe_image", "deserialize_model",
        "distance", "evaluate", "grid_descriptor", "integral_image", "iou", "label_count",
        "lbp_code_3x3", "lbp_code_circular", "lbp_map", "lbp_map_to_image", "load_manifest",
        "load_manifest_file", "load_model", "load_pgm", "load_pgm_file", "nms", "predict",
        "region_sum", "save_model", "save_pgm", "save_pgm_file", "scan_detect",
        "serialize_model", "train_model", "uniformity",
    ]


def test_dataclass_fields_are_pinned():
    # the settable fields of the exported records, 33 in all
    fields = {
        name: [field.name for field in dataclasses.fields(getattr(lbpx, name))]
        for name in sorted(lbpx.__all__)
        if dataclasses.is_dataclass(getattr(lbpx, name))
    }
    assert fields == {
        "BenchmarkResult": ["fps", "ms_per_frame"],
        "Detection": ["x", "y", "width", "height", "score"],
        "EvalReport": ["class_labels", "confusion"],
        "GrayImage": ["pixels"],
        "GridDescriptor": ["grid_rows", "grid_cols", "params", "values"],
        "IntegralImage": ["sums"],
        "LbpMap": ["params", "labels"],
        "LbpParams": ["neighbors", "radius", "sampling", "mapping"],
        "Manifest": ["entries"],
        "ManifestEntry": ["path", "label", "split"],
        "MappingTable": ["table", "label_count"],
        "Model": ["params", "grid_rows", "grid_cols", "class_labels", "templates",
                  "region_weights"],
    }
    assert sum(map(len, fields.values())) == 33


def test_every_array_record_has_a_frozen_array_case():
    # a record with an array field states its copy rule in TestFrozenArrays
    from test_image import TestFrozenArrays

    case = TestFrozenArrays.test_caller_array_stays_writable
    (mark,) = [m for m in case.pytestmark if m.name == "parametrize"]
    array_records = {
        name for name in lbpx.__all__
        if dataclasses.is_dataclass(getattr(lbpx, name))
        and any("np.ndarray" in str(f.type) for f in dataclasses.fields(getattr(lbpx, name)))
    }
    assert array_records - set(mark.kwargs["ids"]) == set()


def test_function_parameters_are_pinned():
    # the parameter names of the exported functions, so a new knob shows up here
    params = {
        name: list(inspect.signature(getattr(lbpx, name)).parameters)
        for name in sorted(lbpx.__all__)
        if inspect.isfunction(getattr(lbpx, name))
    }
    assert params == {
        "benchmark_fps": ["img", "params", "iterations"],
        "build_templates": ["samples"],
        "circular_offsets": ["neighbors", "radius"],
        "describe_image": ["img", "params", "grid_rows", "grid_cols"],
        "deserialize_model": ["text"],
        "distance": ["a", "b", "metric", "weights"],
        "evaluate": ["manifest", "params", "grid_rows", "grid_cols", "metric", "base_dir"],
        "grid_descriptor": ["lmap", "grid_rows", "grid_cols"],
        "integral_image": ["img"],
        "iou": ["a", "b"],
        "label_count": ["mode", "neighbors"],
        "lbp_code_3x3": ["patch"],
        "lbp_code_circular": ["img", "cx", "cy", "params"],
        "lbp_map": ["img", "params"],
        "lbp_map_to_image": ["lmap"],
        "load_manifest": ["text"],
        "load_manifest_file": ["path"],
        "load_model": ["path"],
        "load_pgm": ["data"],
        "load_pgm_file": ["path"],
        "nms": ["detections", "iou_threshold"],
        "predict": ["model", "query", "metric"],
        "region_sum": ["ii", "x0", "y0", "x1", "y1"],
        "save_model": ["model", "path"],
        "save_pgm": ["img"],
        "save_pgm_file": ["img", "path"],
        "scan_detect": ["scene", "template_model", "window", "stride", "threshold"],
        "serialize_model": ["model"],
        "train_model": ["manifest", "params", "grid_rows", "grid_cols", "base_dir"],
        "uniformity": ["code", "neighbors"],
    }
