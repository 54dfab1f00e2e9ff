"""Distance metric, template building, and model serialization tests."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lbpx import (
    GridDescriptor,
    LbpParams,
    Model,
    ModelFormatError,
    ModelMismatchError,
    ParameterError,
    TrainingError,
    build_templates,
    describe_image,
    deserialize_model,
    distance,
    grid_descriptor,
    lbp_map,
    load_model,
    load_pgm_file,
    predict,
    save_model,
    serialize_model,
)

from lbpx.classify import _JSON

from conftest import TEXTURE_KINDS, texture_image

GOLDEN = Path(__file__).parent / "golden"
BINS = LbpParams().label_count  # 59 labels of the default operator


def full(values, regions=1):
    """`values` cut into `regions` equal parts, each padded with zero bins to BINS."""
    parts = np.asarray(values, dtype=np.float64).reshape(regions, -1)
    return np.pad(parts, ((0, 0), (0, BINS - parts.shape[1]))).reshape(-1)


def make_descriptor(values, grid_rows=1, grid_cols=1):
    return GridDescriptor(
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        params=LbpParams(),
        values=full(values, grid_rows * grid_cols),
    )


class TestDistance:
    def test_chi2_unit_example(self):
        assert distance([1.0, 0.0], [0.0, 1.0], "chi2") == 2.0

    def test_chi2_zero_for_identical(self, rng):
        for _ in range(20):
            v = rng.random(30)
            assert distance(v, v, "chi2") == 0.0

    def test_chi2_skips_empty_bins(self):
        # the all-zero bin contributes nothing rather than dividing by zero
        assert distance([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], "chi2") == 2.0

    def test_chi2_hand_computed(self):
        a = [0.5, 0.5, 0.0]
        b = [0.25, 0.25, 0.5]
        expected = 0.25**2 / 0.75 + 0.25**2 / 0.75 + 0.5**2 / 0.5
        assert distance(a, b, "chi2") == pytest.approx(expected, abs=1e-15)

    def test_intersect_on_normalized_histograms(self):
        assert distance([0.5, 0.5], [0.5, 0.5], "intersect") == 0.0
        assert distance([1.0, 0.0], [0.0, 1.0], "intersect") == 1.0
        assert distance([0.7, 0.3], [0.4, 0.6], "intersect") == pytest.approx(0.3)

    def test_l1_is_absolute_difference_sum(self):
        assert distance([1.0, 0.0], [0.0, 1.0], "l1") == 2.0
        assert distance([0.2, 0.8], [0.5, 0.5], "l1") == pytest.approx(0.6)

    def test_wchi2_with_unit_weights_equals_chi2(self, rng):
        for _ in range(50):
            a = rng.random(12)
            b = rng.random(12)
            plain = distance(a, b, "chi2")
            weighted = distance(a, b, "wchi2", weights=np.ones(4))
            assert weighted == pytest.approx(plain, abs=1e-12)

    def test_wchi2_scales_per_region(self):
        a = [1.0, 0.0, 1.0, 0.0]
        b = [0.0, 1.0, 0.0, 1.0]
        # two regions of two bins each; each region alone has chi2 = 2
        assert distance(a, b, "wchi2", weights=[1.0, 0.0]) == 2.0
        assert distance(a, b, "wchi2", weights=[3.0, 0.5]) == pytest.approx(7.0)

    def test_symmetry(self, rng):
        for metric in ("chi2", "intersect", "l1"):
            for _ in range(30):
                a = rng.random(20)
                b = rng.random(20)
                assert distance(a, b, metric) == pytest.approx(
                    distance(b, a, metric), abs=1e-12
                )

    def test_non_negative(self, rng):
        for metric in ("chi2", "l1"):
            for _ in range(30):
                a = rng.random(15)
                b = rng.random(15)
                assert distance(a, b, metric) >= 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ParameterError):
            distance([1.0], [1.0, 2.0])

    def test_unknown_metric_raises(self):
        with pytest.raises(ParameterError):
            distance([1.0], [1.0], "cosine")

    def test_wchi2_requires_weights(self):
        with pytest.raises(ParameterError):
            distance([1.0, 2.0], [1.0, 2.0], "wchi2")

    def test_wchi2_weights_must_divide_length(self):
        with pytest.raises(ParameterError):
            distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "wchi2", weights=[1.0, 1.0])

    def test_wchi2_rejects_negative_weights(self):
        with pytest.raises(ParameterError):
            distance([1.0, 2.0], [1.0, 2.0], "wchi2", weights=[-1.0, 1.0])

    @pytest.mark.parametrize(
        "a, b, weights",
        [([0.5, 0.5], [0.2, 0.8], [np.nan]), ([0.5, 0.5], [0.5, 0.5], [np.inf])],
        ids=["nan-weight", "inf-weight-on-equal-regions"],
    )
    def test_wchi2_rejects_non_finite_weights_as_model_does(self, a, b, weights):
        # they gave NaN, the second with a RuntimeWarning, where Model refuses them
        rule = "^region weights must be finite and non-negative$"
        with pytest.raises(ParameterError, match=rule):
            distance(a, b, "wchi2", weights)
        with pytest.raises(ParameterError, match=rule):
            Model(LbpParams(), 1, 1, ("x",), full(a)[np.newaxis], region_weights=weights)


class TestBuildTemplates:
    def test_single_sample_template_is_the_sample(self):
        desc = make_descriptor([0.25, 0.75])
        model = build_templates([("wood", desc)])
        assert model.class_labels == ("wood",)
        assert np.allclose(model.templates[0], full([0.25, 0.75]))

    def test_templates_average_and_renormalize(self):
        a = make_descriptor([1.0, 0.0])
        b = make_descriptor([0.0, 1.0])
        model = build_templates([("x", a), ("x", b)])
        assert np.allclose(model.templates[0], full([0.5, 0.5]))
        assert model.templates[0].sum() == pytest.approx(1.0)

    def test_class_labels_sorted_ascending(self):
        samples = [
            ("zebra", make_descriptor([1.0, 0.0])),
            ("ant", make_descriptor([0.0, 1.0])),
            ("moth", make_descriptor([0.5, 0.5])),
        ]
        model = build_templates(samples)
        assert model.class_labels == ("ant", "moth", "zebra")
        assert np.allclose(model.templates[0], full([0.0, 1.0]))
        assert np.allclose(model.templates[2], full([1.0, 0.0]))

    def test_regions_renormalized_independently(self):
        # two regions; averaging keeps each region summing to one
        a = make_descriptor([1.0, 0.0, 0.5, 0.5], grid_rows=1, grid_cols=2)
        b = make_descriptor([0.0, 1.0, 1.0, 0.0], grid_rows=1, grid_cols=2)
        model = build_templates([("t", a), ("t", b)])
        assert model.templates[0][:BINS].sum() == pytest.approx(1.0)
        assert model.templates[0][BINS:].sum() == pytest.approx(1.0)

    def test_empty_samples_raise(self):
        with pytest.raises(TrainingError):
            build_templates([])

    def test_mismatched_configuration_raises(self):
        a = make_descriptor([1.0, 0.0], grid_rows=1, grid_cols=1)
        b = make_descriptor([1.0, 0.0, 0.0, 0.0], grid_rows=2, grid_cols=1)
        with pytest.raises(TrainingError):
            build_templates([("x", a), ("y", b)])

    def test_bad_label_raises(self):
        desc = make_descriptor([1.0])
        with pytest.raises(TrainingError):
            build_templates([("", desc)])
        with pytest.raises(TrainingError):
            build_templates([(7, desc)])
        for label in ("a\nb", "a\rb", "a\tb", "\n"):
            with pytest.raises(TrainingError, match="newline"):
                build_templates([(label, desc)])

    def test_reads_a_one_shot_iterator(self):
        samples = iter([("x", make_descriptor([1.0, 0.0])), ("x", make_descriptor([0.0, 1.0]))])
        model = build_templates(samples)
        assert model.templates[0].tolist() == full([0.5, 0.5]).tolist()
        assert next(samples, None) is None

    def test_stops_at_the_first_bad_sample(self):
        read = []

        def samples():
            for label in ("x", "", "y"):
                read.append(label)
                yield label, make_descriptor([1.0, 0.0])

        with pytest.raises(TrainingError):
            build_templates(samples())
        assert read == ["x", ""]

    def test_templates_equal_mean_then_normalize_bitwise(self):
        rng = np.random.default_rng(24)
        for n in range(1, 41):
            rows, cols = rng.integers(1, 4, size=2)
            samples = []
            for label in ("a", "b"):
                # sparse bins, some regions all zero, each descriptor a valid one
                bins = rng.random((n, rows * cols, BINS)) * (rng.random((n, 1, BINS)) < 0.3)
                totals = bins.sum(axis=2, keepdims=True)
                bins = np.divide(bins, totals, out=np.zeros_like(bins), where=totals > 0)
                samples += [(label, GridDescriptor(rows, cols, LbpParams(), b.reshape(-1)))
                            for b in bins]
            order = rng.permutation(len(samples))
            model = build_templates(samples[i] for i in order)
            for k, label in enumerate(model.class_labels):
                rows_of = [samples[i][1].values for i in order if samples[i][0] == label]
                mean = np.mean(rows_of, axis=0).reshape(rows * cols, BINS)
                totals = mean.sum(axis=1, keepdims=True)
                np.divide(mean, totals, out=mean, where=totals > 0)
                assert model.templates[k].tobytes() == mean.tobytes()


class TestPredict:
    def make_model(self):
        return build_templates(
            [
                ("a", make_descriptor([1.0, 0.0])),
                ("b", make_descriptor([0.0, 1.0])),
            ]
        )

    def test_nearest_template_wins(self):
        model = self.make_model()
        label, scores = predict(model, make_descriptor([0.9, 0.1]))
        assert label == "a"
        assert scores.shape == (2,)
        assert scores[0] < scores[1]

    def test_scores_follow_class_label_order(self):
        model = self.make_model()
        _, scores = predict(model, make_descriptor([0.0, 1.0]))
        assert scores[1] == 0.0 and scores[0] > 0.0

    def test_tie_breaks_to_lexicographically_smallest(self):
        model = build_templates(
            [
                ("beta", make_descriptor([0.5, 0.5])),
                ("alpha", make_descriptor([0.5, 0.5])),
            ]
        )
        label, scores = predict(model, make_descriptor([0.1, 0.9]))
        assert scores[0] == scores[1]
        assert label == "alpha"

    def test_exact_match_scores_zero(self):
        model = self.make_model()
        label, scores = predict(model, make_descriptor([1.0, 0.0]))
        assert label == "a" and scores[0] == 0.0

    def test_mismatched_query_raises(self):
        model = self.make_model()
        with pytest.raises(ModelMismatchError):
            predict(model, make_descriptor([1.0, 0.0, 0.0, 0.0], grid_rows=2, grid_cols=1))
        bad_params = GridDescriptor(
            grid_rows=1,
            grid_cols=1,
            params=LbpParams(mapping="raw"),
            values=np.eye(1, 256).reshape(-1),
        )
        with pytest.raises(ModelMismatchError):
            predict(model, bad_params)

    def test_wchi2_needs_model_weights(self):
        model = self.make_model()
        with pytest.raises(ParameterError):
            predict(model, make_descriptor([1.0, 0.0]), "wchi2")

    def test_distance_and_predict_word_missing_weights_alike(self):
        query = make_descriptor([1.0, 0.0])
        messages = []
        for call in (
            lambda: distance(query.values, query.values, "wchi2"),
            lambda: predict(self.make_model(), query, "wchi2"),
        ):
            with pytest.raises(ParameterError) as info:
                call()
            messages.append(str(info.value))
        assert messages == ["wchi2 requires region weights"] * 2

    def test_huge_weights_give_infinite_wchi2_distance(self):
        # a region's weighted chi2 overflows to inf, never NaN, and the tie
        # goes to the smallest label
        desc = make_descriptor([1.0, 0.0, 0.0, 1.0], grid_rows=2, grid_cols=1)
        model = replace(build_templates([("x", desc), ("y", desc)]), region_weights=[1e308] * 2)
        query = make_descriptor([0.0, 1.0, 1.0, 0.0], grid_rows=2, grid_cols=1)
        label, scores = predict(model, query, "wchi2")
        assert label == "x" and scores.tolist() == [float("inf")] * 2

    def test_wchi2_uses_model_weights(self):
        desc = make_descriptor([1.0, 0.0, 0.0, 1.0], grid_rows=2, grid_cols=1)
        model = replace(build_templates([("x", desc)]), region_weights=[0.0, 1.0])
        query = make_descriptor([0.0, 1.0, 0.0, 1.0], grid_rows=2, grid_cols=1)
        _, scores = predict(model, query, "wchi2")
        # first region differs but carries zero weight
        assert scores[0] == 0.0

    @pytest.mark.parametrize("metric", ["chi2", "wchi2", "intersect", "l1"])
    def test_scores_match_distance_oracle(self, metric, rng):
        for _ in range(20):
            templates = rng.random((5, 9 * BINS)) * (rng.random((5, 9 * BINS)) < 0.6)
            weights = rng.random(9) * 3
            model = Model(LbpParams(), 3, 3, tuple("abcde"), templates, region_weights=weights)
            query = rng.random(9 * BINS) * (rng.random(9 * BINS) < 0.6)
            _, scores = predict(model, make_descriptor(query, 3, 3), metric)
            expected = [distance(t, query, metric, weights) for t in templates]
            if metric in ("intersect", "l1"):
                assert scores.tolist() == expected
            else:
                assert scores == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_unknown_metric_raises(self):
        with pytest.raises(ParameterError):
            predict(self.make_model(), make_descriptor([1.0, 0.0]), "cosine")

    def test_textures_classify_to_their_own_class(self, rng):
        samples = []
        for kind in TEXTURE_KINDS:
            for _ in range(3):
                img = texture_image(kind, 32, rng)
                samples.append((kind, grid_descriptor(lbp_map(img, LbpParams()))))
        model = build_templates(samples)
        for kind in TEXTURE_KINDS:
            probe = grid_descriptor(lbp_map(texture_image(kind, 32, rng), LbpParams()))
            label, _ = predict(model, probe)
            assert label == kind


class TestModelSerialization:
    def make_model(self):
        model = build_templates(
            [
                ("sand", make_descriptor([0.25, 0.75, 0.0, 1.0], grid_rows=2, grid_cols=1)),
                ("rock", make_descriptor([1.0, 0.0, 0.5, 0.5], grid_rows=2, grid_cols=1)),
            ]
        )
        return replace(model, region_weights=[1.0, 2.0])

    def test_round_trip_preserves_model(self):
        model = self.make_model()
        assert deserialize_model(serialize_model(model)) == model

    def test_serialized_layout(self):
        doc = json.loads(serialize_model(self.make_model()))
        assert doc["format_version"] == 1
        assert doc["grid"] == [2, 1]
        assert [c["label"] for c in doc["classes"]] == ["rock", "sand"]
        assert doc["params"]["sampling"] == "square3x3"
        assert doc["weights"] == [1.0, 2.0]

    def test_serialization_is_deterministic(self):
        model = self.make_model()
        assert serialize_model(model) == serialize_model(model)

    def test_weighted_model_matches_golden(self, tmp_path):
        # written by json.dumps of a document of lists, before arrays reached the encoder;
        # the train split of the golden corpus, circular P8 R1.5 riu2 on a 2x2 grid
        params = LbpParams(neighbors=8, radius=1.5, sampling="circular", mapping="riu2")
        corpus = GOLDEN / "corpus"
        rows = [row.split(",") for row in (corpus / "manifest.csv").read_text().splitlines()[1:]]
        samples = [
            (label, describe_image(load_pgm_file(corpus / path), params, 2, 2))
            for path, label, split in rows
            if split == "train"
        ]
        model = replace(build_templates(samples), region_weights=[0.5, 1.0, 2.0, 0.25])
        golden = GOLDEN / "model_weighted.json"
        assert serialize_model(model) == golden.read_text()
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == golden.read_bytes()

    def test_the_encoder_lists_arrays_and_rejects_other_types(self):
        doc = {"a": np.arange(3.0), "b": np.eye(2, dtype=np.int64)}
        listed = {"a": [0.0, 1.0, 2.0], "b": [[1, 0], [0, 1]]}
        assert _JSON.encode(doc) == json.dumps(listed, indent=2)
        with pytest.raises(TypeError):
            _JSON.encode({"a": np.float32(1.0)})

    def test_file_round_trip(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_every_model_that_builds_survives_a_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        pool = list("ab\t\n\r ,#\u00e9")
        path = tmp_path / "model.json"
        outcomes = set()
        for _ in range(200):
            draws = (rng.choice(pool, rng.integers(0, 4)) for _ in range(rng.integers(1, 4)))
            labels = tuple(sorted({"".join(chars) for chars in draws}))
            try:
                model = Model(LbpParams(), 1, 1, labels, rng.random((len(labels), BINS)))
            except ParameterError:
                outcomes.add("rejected")
                continue
            outcomes.add("built")
            assert deserialize_model(serialize_model(model)) == model
            save_model(model, path)
            assert load_model(path) == model
        assert outcomes == {"built", "rejected"}

    def test_rejects_invalid_json(self):
        with pytest.raises(ModelFormatError):
            deserialize_model("{not json")

    def test_rejects_wrong_version(self):
        doc = json.loads(serialize_model(self.make_model()))
        doc["format_version"] = 99
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))

    def test_rejects_missing_fields(self):
        doc = json.loads(serialize_model(self.make_model()))
        del doc["classes"]
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))

    def test_rejects_unsorted_classes(self):
        doc = json.loads(serialize_model(self.make_model()))
        doc["classes"].reverse()
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))

    def test_rejects_duplicate_labels(self):
        doc = json.loads(serialize_model(self.make_model()))
        doc["classes"][1]["label"] = doc["classes"][0]["label"]
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize("label", ["", "a\nb", "a\rb", "a\tb"])
    def test_rejects_labels_that_break_output_lines(self, label):
        doc = json.loads(serialize_model(self.make_model()))
        doc["classes"][0]["label"] = label
        with pytest.raises(ModelFormatError, match="class label"):
            deserialize_model(json.dumps(doc))

    def test_rejects_empty_class_list(self):
        doc = json.loads(serialize_model(self.make_model()))
        doc["classes"] = []
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))

    def test_rejects_ragged_templates(self):
        doc = json.loads(serialize_model(self.make_model()))
        doc["classes"][0]["template"] = doc["classes"][0]["template"][:-1]
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))


class TestModelInvalidValues:
    """Model files with impossible values fail to load instead of misclassifying."""

    def golden_doc(self):
        return json.loads((GOLDEN / "train_u2.json").read_text())

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -0.25, 1.5, 1e308],
        ids=["nan-bin", "inf-bin", "negative-bin", "above-one-bin", "huge-bin"],
    )
    def test_rejects_bad_template_bin(self, value):
        doc = self.golden_doc()
        doc["classes"][1]["template"][7] = value
        # json writes NaN and Infinity literals, which json.loads accepts
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "weights",
        [[1.0, 1.0, 1.0], [float("inf")] + [1.0] * 8, [float("nan")] + [1.0] * 8, [-1.0] * 9],
        ids=["3-weights-on-3x3", "inf-weight", "nan-weight", "negative-weights"],
    )
    def test_rejects_bad_weights(self, weights):
        doc = self.golden_doc()
        doc["weights"] = weights
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value",
        [(("classes", 0, "template", 0), 10**400), (("grid", 0), float("inf")),
         (("format_version",), float("inf"))],
        ids=["huge-int-bin", "inf-grid", "inf-version"],
    )
    def test_rejects_out_of_range_numbers(self, path, value):
        doc = self.golden_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ModelFormatError):
            deserialize_model(json.dumps(doc))

    def test_valid_weights_load(self):
        doc = self.golden_doc()
        doc["weights"] = [2.0] * 9
        assert deserialize_model(json.dumps(doc)).region_weights.tolist() == [2.0] * 9

    def test_invalid_params_block_stays_a_parameter_error(self):
        doc = self.golden_doc()
        doc["params"]["neighbors"] = 99
        with pytest.raises(ParameterError):
            deserialize_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"templates": np.ones((2, 4 * BINS))},
            {"templates": np.ones(4 * BINS)},
            {"templates": np.ones((1, 4 * BINS + 1))},
            {"templates": np.ones((1, 8))},
            {"class_labels": ("b", "a"), "templates": np.ones((2, 4 * BINS))},
            {"class_labels": ("a", "a"), "templates": np.ones((2, 4 * BINS))},
            {"class_labels": ("a\tb",)},
            {"class_labels": ("a", 7), "templates": np.ones((2, 4 * BINS))},
            {"class_labels": ()},
            {"grid_rows": 0},
            {"region_weights": np.ones((2, 2))},
        ],
        ids=["rows-vs-classes", "1-d-templates", "length-vs-grid", "length-vs-labels",
             "unsorted-labels", "duplicate-labels", "tab-label", "non-string-label", "no-classes",
             "zero-grid", "2-d-weights"],
    )
    def test_constructor_checks_invariants(self, kwargs):
        fields = {
            "params": LbpParams(),
            "grid_rows": 2,
            "grid_cols": 2,
            "class_labels": ("a",),
            "templates": np.ones((1, 4 * BINS)),
        }
        Model(**fields)
        with pytest.raises(ParameterError):
            Model(**{**fields, **kwargs})


class TestModelEquality:
    def test_equality_and_inequality(self):
        a = build_templates([("x", make_descriptor([1.0, 0.0]))])
        b = build_templates([("x", make_descriptor([1.0, 0.0]))])
        c = build_templates([("x", make_descriptor([0.0, 1.0]))])
        assert a == b
        assert a != c
        assert a != 42

    def test_weights_take_part_in_equality(self):
        templates = np.ones((1, 2 * BINS))
        plain = Model(LbpParams(), 1, 2, ("x",), templates)
        weighted = Model(LbpParams(), 1, 2, ("x",), templates, region_weights=[1.0, 1.0])
        assert plain != weighted
        assert weighted == Model(LbpParams(), 1, 2, ("x",), templates, np.ones(2))

    def test_templates_are_immutable(self):
        model = build_templates([("x", make_descriptor([1.0, 0.0]))])
        with pytest.raises(ValueError):
            model.templates[0, 0] = 5.0
