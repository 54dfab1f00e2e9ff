"""Manifest parsing, train/test evaluation, and benchmark tests."""

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

    def test_accepts_bytes(self):
        m = load_manifest(b"path,label,split\na.pgm,x,train\n")
        assert len(m.entries) == 1

    def test_bytes_that_are_not_utf8_raise(self):
        with pytest.raises(ManifestError, match="UTF-8"):
            load_manifest(b"path,label,split\n\xff,a,train\n")

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

    def test_report_carries_configuration(self, tmp_path, rng):
        manifest_path = write_texture_corpus(tmp_path, rng, 2, 2, size=32)
        params = LbpParams(mapping="riu2")
        report = evaluate(
            load_manifest_file(manifest_path),
            params,
            grid_rows=2,
            grid_cols=2,
            metric="l1",
            base_dir=tmp_path,
        )
        assert report.params == params
        assert (report.grid_rows, report.grid_cols) == (2, 2)
        assert report.metric == "l1"

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
        report = EvalReport(
            accuracy=0.75,
            class_labels=("a", "b"),
            confusion=[[2, 1], [0, 1]],
            params=LbpParams(),
            grid_rows=1,
            grid_cols=1,
            metric="chi2",
        )
        assert report.n_test == report.confusion.sum() == 4
        assert report.to_json_dict()["n_test"] == 4

    def test_report_json_layout(self, tmp_path, rng):
        manifest_path = write_texture_corpus(tmp_path, rng, 2, 2, size=32)
        report = evaluate(load_manifest_file(manifest_path), LbpParams(), base_dir=tmp_path)
        doc = report.to_json_dict()
        assert list(doc) == ["accuracy", "n_test", "classes", "confusion", "fps", "config"]
        assert doc["config"]["grid"] == [3, 3]
        assert doc["fps"] is None


class TestBenchmarkFps:
    def test_reports_consistent_timing_fields(self, rng):
        img = random_image(rng, 64, 48)
        result = benchmark_fps(img, LbpParams(mapping="raw"), iterations=5)
        assert result.iterations == 5
        assert (result.image_width, result.image_height) == (64, 48)
        assert result.fps > 0
        assert result.ms_per_frame == pytest.approx(1000.0 / result.fps)

    def test_rejects_bad_arguments(self, rng):
        img = random_image(rng, 16, 16)
        with pytest.raises(ParameterError):
            benchmark_fps(img, LbpParams(), iterations=0)
