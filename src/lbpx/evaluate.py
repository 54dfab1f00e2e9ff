"""Dataset manifests, train/test evaluation, and throughput benchmarking."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classify import Model, build_templates, predict
from .descriptor import describe_image
from .errors import EvaluationError, ManifestError, ParameterError
from .image import GrayImage, fields_equal, frozen_array, load_pgm_file, read_text_file
from .lbp import LbpParams, lbp_map

MANIFEST_HEADER = ("path", "label", "split")
SPLITS = ("train", "test")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str


@dataclass(frozen=True)
class Manifest:
    """Ordered dataset listing; the train/test split lives in the file."""

    entries: tuple[ManifestEntry, ...]

    def split(self, which: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == which]


def load_manifest(text) -> Manifest:
    """Parse CSV with header path,label,split; data rows are numbered from 1."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ManifestError(f"manifest is not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ManifestError("empty manifest") from None
    if tuple(field.strip() for field in header) != MANIFEST_HEADER:
        raise ManifestError(
            f"manifest header must be {','.join(MANIFEST_HEADER)!r}, got {','.join(header)!r}"
        )
    entries = []
    seen: set[str] = set()
    row_number = 0
    for row in reader:
        if not row or all(not field.strip() for field in row):
            continue
        row_number += 1
        if len(row) != 3:
            raise ManifestError(f"row {row_number}: expected 3 fields, got {len(row)}")
        path, label, split = (field.strip() for field in row)
        if not path:
            raise ManifestError(f"row {row_number}: empty path")
        if not label:
            raise ManifestError(f"row {row_number}: empty label")
        if split not in SPLITS:
            raise ManifestError(
                f"row {row_number}: unknown split {split!r}, expected one of {SPLITS}"
            )
        if path in seen:
            raise ManifestError(f"row {row_number}: duplicate path {path!r}")
        seen.add(path)
        entries.append(ManifestEntry(path=path, label=label, split=split))
    return Manifest(entries=tuple(entries))


def load_manifest_file(path) -> Manifest:
    return load_manifest(read_text_file(path, ManifestError))


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Accuracy, confusion counts, and the configuration that produced them."""

    accuracy: float
    class_labels: tuple[str, ...]
    confusion: np.ndarray
    params: LbpParams
    grid_rows: int
    grid_cols: int
    metric: str
    fps: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "confusion", frozen_array(self.confusion, np.int64))

    __eq__ = fields_equal

    @property
    def n_test(self) -> int:
        return int(self.confusion.sum())

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_test": self.n_test,
            "classes": list(self.class_labels),
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "fps": self.fps,
            "config": {
                **self.params.to_json_dict(),
                "grid": [self.grid_rows, self.grid_cols],
                "metric": self.metric,
            },
        }


def _describe_entry(entry: ManifestEntry, params: LbpParams, rows: int, cols: int, base_dir):
    # OSError and PgmFormatError propagate with the offending path attached
    path = Path(base_dir) / entry.path if base_dir is not None else Path(entry.path)
    return describe_image(load_pgm_file(path), params, rows, cols)


def train_model(
    manifest: Manifest,
    params: LbpParams,
    grid_rows: int = 3,
    grid_cols: int = 3,
    base_dir=None,
) -> Model:
    """Build per-class templates from the manifest's train split."""
    train = manifest.split("train")
    if not train:
        raise EvaluationError("manifest has no train entries")
    samples = [
        (e.label, _describe_entry(e, params, grid_rows, grid_cols, base_dir)) for e in train
    ]
    return build_templates(samples)


def evaluate(
    manifest: Manifest,
    params: LbpParams,
    grid_rows: int = 3,
    grid_cols: int = 3,
    metric: str = "chi2",
    base_dir=None,
) -> EvalReport:
    """Train on the train split, classify the test split, report accuracy.

    Confusion rows are true classes and columns predicted classes, both in
    model (ascending label) order; accuracy is the trace over n_test.
    """
    test = manifest.split("test")
    if not test:
        raise EvaluationError("manifest has no test entries")
    model = train_model(manifest, params, grid_rows, grid_cols, base_dir)
    index = {label: i for i, label in enumerate(model.class_labels)}
    for entry in test:
        if entry.label not in index:
            raise EvaluationError(
                f"test label {entry.label!r} does not appear in the train split"
            )
    confusion = np.zeros((model.n_classes, model.n_classes), dtype=np.int64)
    for entry in test:
        desc = _describe_entry(entry, params, grid_rows, grid_cols, base_dir)
        predicted, _ = predict(model, desc, metric)
        confusion[index[entry.label], index[predicted]] += 1
    accuracy = float(np.trace(confusion)) / len(test)
    return EvalReport(
        accuracy=accuracy,
        class_labels=model.class_labels,
        confusion=confusion,
        params=params,
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        metric=metric,
    )


@dataclass(frozen=True)
class BenchmarkResult:
    """Throughput of repeated whole-image map computation, I/O excluded."""

    fps: float
    ms_per_frame: float
    iterations: int
    image_width: int
    image_height: int


def benchmark_fps(img: GrayImage, params: LbpParams, iterations: int = 100) -> BenchmarkResult:
    """Time `iterations` map computations; fps = iterations / elapsed seconds.

    Map allocation is part of the measured work.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be at least 1, got {iterations}")
    lbp_map(img, params)  # warm-up outside the timed loop
    start = time.perf_counter()
    for _ in range(iterations):
        lbp_map(img, params)
    elapsed = max(time.perf_counter() - start, 1e-9)
    fps = iterations / elapsed
    return BenchmarkResult(
        fps=fps,
        ms_per_frame=1000.0 / fps,
        iterations=iterations,
        image_width=img.width,
        image_height=img.height,
    )
