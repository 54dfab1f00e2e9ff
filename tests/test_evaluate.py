"""Manifest parsing, train/test evaluation, and benchmark tests."""

import json
import tracemalloc

import numpy as np
import pytest

from lbpx import (
    EvalReport,
    EvaluationError,
    LbpParams,
    ManifestError,
    ParameterError,
    PgmFormatError,
    benchmark_fps,
    evaluate,
    load_manifest,
    load_manifest_file,
    save_pgm_file,
    train_model,
)
from lbpx.cli import run_cli

from conftest import TEXTURE_KINDS, random_image, texture_image, write_texture_corpus


class TestLoadManifest:
    def test_parses_rows_in_order(self):
        m = load_manifest("path,label,split\na.pgm,wood,train\nb.pgm,rock,test\n")
        assert [e.path for e in m.entries] == ["a.pgm", "b.pgm"]
        assert m.entries[0].label == "wood"
        assert m.entries[1].split == "test"

    def test_split_filters_entries(self):
        m = load_manifest(
            "path,label,split\na.pgm,x,train\nb.pgm,x,test\nc.pgm,y,train\n"
        )
        assert [e.path for e in m.split("train")] == ["a.pgm", "c.pgm"]
        assert [e.path for e in m.split("test")] == ["b.pgm"]

    def test_fields_are_stripped(self):
        m = load_manifest("path,label,split\n a.pgm , x , train \n")
        assert m.entries[0].path == "a.pgm"
        assert m.entries[0].label == "x"

    def test_blank_lines_skipped(self):
        m = load_manifest("path,label,split\n\na.pgm,x,train\n\n\nb.pgm,y,test\n")
        assert len(m.entries) == 2

    def test_empty_text_raises(self):
        with pytest.raises(ManifestError, match="empty"):
            load_manifest("")

    def test_wrong_header_raises(self):
        with pytest.raises(ManifestError, match="header"):
            load_manifest("file,class,fold\na.pgm,x,train\n")

    def test_wrong_field_count_mentions_row(self):
        with pytest.raises(ManifestError, match="row 2"):
            load_manifest("path,label,split\na.pgm,x,train\nb.pgm,x\n")

    def test_blank_rows_do_not_shift_numbering(self):
        with pytest.raises(ManifestError, match="row 2"):
            load_manifest("path,label,split\n\n\na.pgm,x,train\n\nb.pgm,x\n")

    def test_empty_path_raises(self):
        with pytest.raises(ManifestError, match="empty path"):
            load_manifest("path,label,split\n ,x,train\n")

    def test_empty_label_raises(self):
        with pytest.raises(ManifestError, match="empty label"):
            load_manifest("path,label,split\na.pgm, ,train\n")

    def test_unknown_split_raises(self):
        with pytest.raises(ManifestError, match="split"):
            load_manifest("path,label,split\na.pgm,x,validation\n")

    def test_duplicate_path_raises(self):
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest("path,label,split\na.pgm,x,train\na.pgm,y,test\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("path,label,split\na.pgm,x,train\n", encoding="utf-8")
        assert len(load_manifest_file(path).entries) == 1


class TestTrainModel:
    def test_builds_sorted_class_templates(self, tmp_path, rng):
        manifest_path = write_texture_corpus(tmp_path, rng)
        manifest = load_manifest_file(manifest_path)
        model = train_model(manifest, LbpParams(), base_dir=tmp_path)
        assert model.class_labels == tuple(sorted(TEXTURE_KINDS))
        assert model.templates.shape == (4, 9 * 59)

    def test_no_train_entries_raises(self, tmp_path, rng):
        save_pgm_file(texture_image("flat", 16, rng), tmp_path / "a.pgm")
        manifest = load_manifest("path,label,split\na.pgm,flat,test\n")
        with pytest.raises(EvaluationError, match="train"):
            train_model(manifest, LbpParams(), base_dir=tmp_path)

    def test_missing_image_file_raises_oserror(self, tmp_path):
        manifest = load_manifest("path,label,split\nghost.pgm,x,train\n")
        with pytest.raises(OSError):
            train_model(manifest, LbpParams(), base_dir=tmp_path)

    def test_peak_memory_does_not_grow_with_the_image_count(self, tmp_path, rng):
        # one running sum per class: 60 images of 147,456-value descriptors (circular
        # P14 R3 raw, 3x3 grid) peak near 6.2 descriptor sizes, not one per image
        rows = ["path,label,split"]
        for i in range(60):
            save_pgm_file(random_image(rng, 64, 64), tmp_path / f"{i}.pgm")
            rows.append(f"{i}.pgm,{'ab'[i % 2]},train")
        manifest = load_manifest("\n".join(rows) + "\n")
        params = LbpParams(neighbors=14, radius=3.0, sampling="circular", mapping="raw")
        tracemalloc.start()
        try:
            model = train_model(manifest, params, base_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        descriptor_bytes = model.templates[0].nbytes
        assert descriptor_bytes == 9 * 2**14 * 8
        assert peak / descriptor_bytes < 16

    def test_corrupt_image_error_names_the_file(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\n4 4\n255\nxy")
        manifest = load_manifest("path,label,split\nbad.pgm,x,train\n")
        with pytest.raises(PgmFormatError, match="bad.pgm"):
            train_model(manifest, LbpParams(), base_dir=tmp_path)


class TestEvaluate:
    def test_clean_corpus_is_fully_separable(self, tmp_path, rng):
        manifest_path = write_texture_corpus(tmp_path, rng, 4, 4, size=32)
        report = evaluate(load_manifest_file(manifest_path), LbpParams(), base_dir=tmp_path)
        assert report.accuracy == 1.0
        assert report.n_test == 16
        assert report.class_labels == tuple(sorted(TEXTURE_KINDS))
        assert np.array_equal(report.confusion, np.diag([4, 4, 4, 4]))

    def test_confusion_rows_sum_to_per_class_test_counts(self, tmp_path, rng):
        manifest_path = write_texture_corpus(tmp_path, rng, 3, 5, size=32)
        report = evaluate(load_manifest_file(manifest_path), LbpParams(), base_dir=tmp_path)
        assert report.confusion.sum() == report.n_test == 20
        assert report.confusion.sum(axis=1).tolist() == [5, 5, 5, 5]

    def test_accuracy_is_trace_over_n_test(self, tmp_path, rng):
        manifest_path = write_texture_corpus(tmp_path, rng, 3, 3, size=32)
        report = evaluate(load_manifest_file(manifest_path), LbpParams(), base_dir=tmp_path)
        assert report.accuracy == np.trace(report.confusion) / report.n_test

    def test_no_test_entries_raises(self, tmp_path, rng):
        save_pgm_file(texture_image("flat", 16, rng), tmp_path / "a.pgm")
        manifest = load_manifest("path,label,split\na.pgm,flat,train\n")
        with pytest.raises(EvaluationError, match="test"):
            evaluate(manifest, LbpParams(), base_dir=tmp_path)

    def test_unseen_test_label_raises(self, tmp_path, rng):
        save_pgm_file(texture_image("flat", 16, rng), tmp_path / "a.pgm")
        save_pgm_file(texture_image("checker", 16, rng), tmp_path / "b.pgm")
        manifest = load_manifest(
            "path,label,split\na.pgm,flat,train\nb.pgm,checker,test\n"
        )
        with pytest.raises(EvaluationError, match="checker"):
            evaluate(manifest, LbpParams(), base_dir=tmp_path)

    def test_n_test_is_the_confusion_total(self):
        report = EvalReport(class_labels=("a", "b"), confusion=[[2, 1], [0, 1]])
        assert report.n_test == report.confusion.sum() == 4
        assert report.accuracy == 0.75

    def test_accuracy_is_the_trace_over_n_test(self, rng):
        confusion = rng.integers(0, 30, size=(6, 6))
        report = EvalReport(class_labels=tuple("abcdef"), confusion=confusion)
        assert report.accuracy == float(np.trace(confusion)) / report.n_test

    @pytest.mark.parametrize(
        "class_labels, confusion",
        [
            (("a", "b", "c"), [[1, 0], [0, 1]]),
            (("a", "b"), [[1, 0, 0], [0, 1, 0]]),
            (("a", "b"), [[2, -1], [0, 1]]),
            (("a", "b"), [[0, 0], [0, 0]]),  # no accuracy to derive
        ],
        ids=["k-mismatch", "not-square", "negative-count", "all-zero"],
    )
    def test_report_checks_its_matrix(self, class_labels, confusion):
        with pytest.raises(ParameterError, match="confusion"):
            EvalReport(class_labels=class_labels, confusion=confusion)

    def test_report_json_layout(self, tmp_path, rng, capsys):
        # the report document is built by the evaluate command
        manifest_path = write_texture_corpus(tmp_path, rng, 2, 2, size=32)
        assert run_cli(["evaluate", "--manifest", str(manifest_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["accuracy", "n_test", "classes", "confusion", "fps", "config"]
        assert doc["config"]["grid"] == [3, 3]
        assert doc["fps"] is None


class TestBenchmarkFps:
    def test_reports_consistent_timing_fields(self, rng):
        img = random_image(rng, 64, 48)
        result = benchmark_fps(img, LbpParams(mapping="raw"), iterations=5)
        assert result.fps > 0
        assert result.ms_per_frame == pytest.approx(1000.0 / result.fps)

    def test_rejects_bad_arguments(self, rng):
        img = random_image(rng, 16, 16)
        with pytest.raises(ParameterError):
            benchmark_fps(img, LbpParams(), iterations=0)
