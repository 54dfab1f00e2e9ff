"""The benchmark's workloads: inputs, the op mix of one iteration, output checks.

An op is one `lbpx` command line run in-process through `lbpx.cli.run_cli`.
Each op carries a check on its output; the runner also requires that an op
repeated on the same input prints the same bytes.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import corpus

GRID = 3
NMS_IOU = 0.3
STRIDE = 4
MATCH_IOU = 0.5

# Operator flags per eval workload; only the LBP operator differs between them.
EVAL_PARAMS = {
    "texture_eval": {},
    "multiscale_eval": {"sampling": "circular", "neighbors": 24, "radius": 3.0, "mapping": "riu2"},
}

@dataclass
class Op:
    kind: str
    argv: list[str]
    key: str  # names the op's input; equal keys must give equal outputs
    check: Callable[[str], str | None]  # returns a problem, or None when the output is right
    output_file: Path | None = None  # read as the op's output instead of stdout


@dataclass
class Figures:
    """The end-to-end figures a workload reports, plus informational lines."""

    op_name: str
    op_samples: list[float]
    items_per_s: float
    quality: float
    items_note: str
    info: dict = field(default_factory=dict)


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _flags(params: dict) -> list[str]:
    return [arg for key, value in params.items() for arg in (f"--{key}", str(value))]


def _check_text(expected: str, what: str, text: str) -> str | None:
    return None if text == expected else f"{what} differs from the library result"


def inclusive_iou(a: dict, b: dict) -> float:
    """IoU of two boxes as inclusive pixel rectangles, the way `lbpx.detect` defines it."""
    iw = max(0, min(a["x"] + a["w"], b["x"] + b["w"]) - max(a["x"], b["x"]))
    ih = max(0, min(a["y"] + a["h"], b["y"] + b["h"]) - max(a["y"], b["y"]))
    inter = iw * ih
    if inter == 0:
        return 0.0
    return inter / (a["w"] * a["h"] + b["w"] * b["h"] - inter)


class EvalWorkload:
    """train, one classify per test image, evaluate — over one texture corpus."""

    def __init__(self, name: str, work: Path, seed: int, sizes: corpus.Sizes):
        self.name = name
        self.params = EVAL_PARAMS[name]
        self.corpus = corpus.make_textures(work / "textures", seed, sizes)
        self.model = work / "model.json"
        self.cold_model = work / "cold_model.json"
        self.n_items = len(self.corpus.train) + len(self.corpus.test)

    def _train_argv(self, manifest: Path, output: Path) -> list[str]:
        return ["train", "--manifest", str(manifest), "--output", str(output)] + _flags(self.params)

    def _classify_argv(self, model: Path, image: Path) -> list[str]:
        return ["classify", "--model", str(model), "--input", str(image)]

    def _evaluate_argv(self, manifest: Path) -> list[str]:
        return ["evaluate", "--manifest", str(manifest)] + _flags(self.params)

    def prepare(self) -> list[Op]:
        """Compute every expected output on the library path; no setup ops needed."""
        from lbpx import (
            LbpParams,
            grid_descriptor,
            lbp_map,
            load_manifest_file,
            load_pgm_file,
            predict,
            serialize_model,
            train_model,
        )

        params = LbpParams(**self.params)
        manifest = load_manifest_file(self.corpus.manifest)
        model = train_model(manifest, params, GRID, GRID, base_dir=self.corpus.manifest.parent)
        self.expected_model = serialize_model(model)
        self.classes = list(model.class_labels)
        index = {label: i for i, label in enumerate(self.classes)}
        confusion = [[0] * len(self.classes) for _ in self.classes]
        self.expected_label: dict[Path, str] = {}
        self.expected_classify: dict[Path, str] = {}
        for path, truth in self.corpus.test:
            desc = grid_descriptor(lbp_map(load_pgm_file(path), params), GRID, GRID)
            label, scores = predict(model, desc, "chi2")
            self.expected_label[path] = label
            self.expected_classify[path] = label + "\n" + "".join(
                f"{c}\t{s:.6f}\n" for c, s in zip(self.classes, scores)
            )
            confusion[index[truth]][index[label]] += 1
        self.expected_confusion = confusion
        self.accuracy = sum(confusion[i][i] for i in range(len(confusion))) / len(self.corpus.test)
        return []

    def _check_classify(self, path: Path, text: str) -> str | None:
        lines = text.splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        if not lines or [r[0] for r in rows] != self.classes or any(len(r) != 2 for r in rows):
            return "classify output is not a label followed by one line per class"
        distances = [float(r[1]) for r in rows]
        if lines[0] != self.classes[distances.index(min(distances))]:
            return "printed label is not the argmin of the printed distances"
        if lines[0] != self.expected_label[path]:
            return "printed label differs from lbpx.predict"
        return _check_text(self.expected_classify[path], "classify output", text)

    def _check_evaluate(self, text: str) -> str | None:
        report = json.loads(text)
        confusion = report["confusion"]
        if sum(map(sum, confusion)) != report["n_test"] or report["n_test"] != len(self.corpus.test):
            return "confusion matrix does not sum to n_test"
        if report["classes"] != self.classes or confusion != self.expected_confusion:
            return "confusion matrix differs from the library"
        if report["accuracy"] != self.accuracy:
            return "accuracy differs from the library"
        return None

    def iteration(self) -> list[Op]:
        ops = [
            Op(
                "train",
                self._train_argv(self.corpus.manifest, self.model),
                "train",
                partial(_check_text, self.expected_model, "model JSON"),
                output_file=self.model,
            )
        ]
        for path, _ in self.corpus.test:
            ops.append(
                Op(
                    "classify",
                    self._classify_argv(self.model, path),
                    f"classify {path.name}",
                    partial(self._check_classify, path),
                )
            )
        ops.append(
            Op("evaluate", self._evaluate_argv(self.corpus.manifest), "evaluate", self._check_evaluate)
        )
        return ops

    def cold_ops(self) -> list[tuple[str, list[str]]]:
        """First calls in a fresh process, on one train and one test image per class."""
        cold = self.corpus.cold_manifest
        return [
            ("train", self._train_argv(cold, self.cold_model)),
            ("classify", self._classify_argv(self.cold_model, self.corpus.test[0][0])),
            ("evaluate", self._evaluate_argv(cold)),
        ]

    def figures(self, samples: dict[str, list[float]]) -> Figures:
        return Figures(
            op_name="classify",
            op_samples=samples["classify"],
            items_per_s=self.n_items * len(samples["evaluate"]) / sum(samples["evaluate"]),
            quality=self.accuracy,
            items_note="train + test images per second of evaluate, over all evaluate ops; "
            "evaluate accuracy",
            info={"train_s": (statistics.median(samples["train"]), "s", len(samples["train"]))},
        )


class SceneWorkload:
    """One `detect` per scene against a one-class model trained during setup."""

    params: dict = {}  # the default operator

    def __init__(self, name: str, work: Path, seed: int, sizes: corpus.Sizes):
        self.name = name
        self.corpus = corpus.make_scenes(work / "scenes", seed, sizes)
        self.model = work / "target_model.json"
        self.cold_model = work / "cold_target_model.json"
        side = self.corpus.window
        first = self.corpus.scenes[0]
        self.windows = ((first.width - side) // STRIDE + 1) * ((first.height - side) // STRIDE + 1)
        self.matched: dict[str, int] = {}

    def _train_argv(self, output: Path) -> list[str]:
        return ["train", "--manifest", str(self.corpus.manifest), "--output", str(output)]

    def _detect_argv(self, model: Path, scene: corpus.Scene) -> list[str]:
        side = self.corpus.window
        return [
            "detect",
            "--scene", str(scene.path),
            "--model", str(model),
            "--window", f"{side}x{side}",
            "--stride", str(STRIDE),
            "--nms-iou", str(NMS_IOU),
        ]  # fmt: skip

    def prepare(self) -> list[Op]:
        """Expected model from the library; the CLI trains it as the one setup op."""
        from lbpx import LbpParams, load_manifest_file, serialize_model, train_model

        manifest = load_manifest_file(self.corpus.manifest)
        expected = serialize_model(
            train_model(manifest, LbpParams(), GRID, GRID, base_dir=self.corpus.manifest.parent)
        )
        check = partial(_check_text, expected, "one-class model JSON")
        return [Op("train", self._train_argv(self.model), "train", check, output_file=self.model)]

    def _check_detect(self, scene: corpus.Scene, text: str) -> str | None:
        boxes = [json.loads(line) for line in text.splitlines()]
        side = self.corpus.window
        for b in boxes:
            if (b["w"], b["h"]) != (side, side):
                return "box size differs from the window"
            if b["x"] < 0 or b["y"] < 0 or b["x"] + b["w"] > scene.width or b["y"] + b["h"] > scene.height:
                return "box lies outside the scene"
        scores = [b["score"] for b in boxes]
        if scores != sorted(scores):
            return "kept boxes are not sorted by score"
        for i, a in enumerate(boxes):
            if any(inclusive_iou(a, b) > NMS_IOU for b in boxes[i + 1 :]):
                return "two kept boxes overlap by more than the NMS IoU"
        top = boxes[: len(scene.targets)]
        target_boxes = [{"x": x, "y": y, "w": side, "h": side} for x, y in scene.targets]
        self.matched[scene.path.name] = sum(
            any(inclusive_iou(t, b) >= MATCH_IOU for b in top) for t in target_boxes
        )
        return None

    def iteration(self) -> list[Op]:
        return [
            Op(
                "detect",
                self._detect_argv(self.model, scene),
                f"detect {scene.path.name}",
                partial(self._check_detect, scene),
            )
            for scene in self.corpus.scenes
        ]

    def cold_ops(self) -> list[tuple[str, list[str]]]:
        """First calls in a fresh process; detect on a small scene of its own."""
        return [
            ("train", self._train_argv(self.cold_model)),
            ("detect", self._detect_argv(self.cold_model, self.corpus.cold_scene)),
        ]

    def figures(self, samples: dict[str, list[float]]) -> Figures:
        planted = sum(len(s.targets) for s in self.corpus.scenes)
        return Figures(
            op_name="detect",
            op_samples=samples["detect"],
            items_per_s=self.windows * len(samples["detect"]) / sum(samples["detect"]),
            quality=sum(self.matched.values()) / planted,
            items_note="windows scanned per second of detect, over all detect ops; planted "
            "targets found by the top kept boxes at IoU >= 0.5",
        )


WORKLOADS = {
    "texture_eval": EvalWorkload,
    "multiscale_eval": EvalWorkload,
    "scene_detect": SceneWorkload,
}
