"""Command-line interface tests: outputs, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from lbpx import (
    BoundsError,
    CorruptMapError,
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
from lbpx import cli
from lbpx.cli import run_cli

from conftest import texture_image, write_texture_corpus

GOLDEN = Path(__file__).parent / "golden"


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
            "bench": ["--input", "--iterations", "--threads"],
        }[command]
        for flag in flags:
            assert flag in text

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        assert run_cli(["map", "--output", "x.pgm"]) == 1


class TestMapCommand:
    def test_writes_raw_label_map_pgm(self, tmp_path, sample_image):
        out = tmp_path / "out.pgm"
        code = run_cli(
            ["map", "--input", str(sample_image), "--output", str(out), "--mapping", "raw"]
        )
        assert code == 0
        expected = lbp_map_to_image(lbp_map(load_pgm_file(sample_image), LbpParams(mapping="raw")))
        assert out.read_bytes() == save_pgm(expected)

    def test_mapped_labels_cannot_be_exported_as_pgm(self, tmp_path, sample_image, capsys):
        out = tmp_path / "out.pgm"
        code = run_cli(["map", "--input", str(sample_image), "--output", str(out)])
        assert code == 1
        assert "raw" in capsys.readouterr().err

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
        assert doc == expected.to_json_dict()

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


    @pytest.mark.parametrize(
        "field, value",
        [("template", float("nan")), ("template", float("inf")), ("template", -0.5),
         ("weights", [1.0, 1.0, 1.0]), ("weights", [float("inf")] + [1.0] * 8)],
        ids=["nan-bin", "inf-bin", "negative-bin", "3-weights-on-3x3", "inf-weight"],
    )
    def test_invalid_model_values_exit_2(self, field, value, tmp_path, sample_image, capsys):
        doc = json.loads((GOLDEN / "train_u2.json").read_text())
        if field == "template":
            doc["classes"][1]["template"][7] = value
        else:
            doc["weights"] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(["classify", "--model", str(bad), "--input", str(sample_image)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lbpx: ")


class TestEvaluateCommand:
    def test_report_matches_library_evaluation(self, corpus, capsys):
        base, manifest = corpus
        assert run_cli(["evaluate", "--manifest", str(manifest)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = evaluate(load_manifest_file(manifest), LbpParams(), base_dir=base)
        assert doc == expected.to_json_dict()
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

    @pytest.mark.parametrize(
        "mapping, window, stride",
        [("u2", "24x24", 8), ("u2", "24x24", 4), ("u2", "24x24", 1), ("riu2", "28x20", 3)],
    )
    def test_output_matches_golden(self, mapping, window, stride, capsys):
        # goldens were written by the per-window scan (one histogram and one
        # distance call per window) and its list-based NMS
        capsys.readouterr()
        code = run_cli(
            ["detect", "--scene", str(GOLDEN / "detect_scene.pgm"),
             "--model", str(GOLDEN / f"detect_model_{mapping}.json"),
             "--window", window, "--stride", str(stride)]
        )
        assert code == 0
        expected = (GOLDEN / f"detect_{mapping}_{window}_s{stride}.jsonl").read_text()
        assert capsys.readouterr().out == expected

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
    model is the trained one plus the weights below.
    """

    CORPUS = GOLDEN / "corpus"
    FLAGS = {
        "u2": [],
        "riu2": ["--sampling", "circular", "--neighbors", "8", "--radius", "1.5",
                 "--mapping", "riu2"],
    }
    WEIGHTS = [1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]

    def output(self, argv, capsys):
        capsys.readouterr()
        assert run_cli(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("tag", ["u2", "riu2"])
    def test_train_matches_golden(self, tag, capsys):
        out = self.output(
            ["train", "--manifest", str(self.CORPUS / "manifest.csv")] + self.FLAGS[tag], capsys
        )
        assert out == (GOLDEN / f"train_{tag}.json").read_text()

    @pytest.mark.parametrize("metric", ["chi2", "intersect", "l1"])
    @pytest.mark.parametrize("tag", ["u2", "riu2"])
    def test_evaluate_matches_golden(self, tag, metric, capsys):
        out = self.output(
            ["evaluate", "--manifest", str(self.CORPUS / "manifest.csv"), "--metric", metric]
            + self.FLAGS[tag],
            capsys,
        )
        assert out == (GOLDEN / f"evaluate_{tag}_{metric}.json").read_text()

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
        assert doc["iterations"] == 3
        assert doc["threads"] == 1
        assert doc["fps"] > 0
        assert doc["image"] == [24, 24]
        assert doc["config"]["sampling"] == "square3x3"

    def test_thread_cap_env_limits_workers(self, sample_image, capsys, monkeypatch):
        monkeypatch.setenv("LBPX_THREADS", "1")
        code = run_cli(
            ["bench", "--input", str(sample_image), "--iterations", "2", "--threads", "4"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 1

    def test_unset_cap_leaves_threads_alone(self, sample_image, capsys, monkeypatch):
        monkeypatch.delenv("LBPX_THREADS", raising=False)
        code = run_cli(
            ["bench", "--input", str(sample_image), "--iterations", "2", "--threads", "2"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 2

    def test_bad_iteration_count_exits_1(self, sample_image):
        assert run_cli(["bench", "--input", str(sample_image), "--iterations", "0"]) == 1


# the exit-code table in README.md
EXIT_CODES = {
    LbpxError: 1,
    ParameterError: 1,
    BoundsError: 1,
    CorruptMapError: 1,
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

        monkeypatch.setitem(cli._COMMANDS, "map", fail)
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
