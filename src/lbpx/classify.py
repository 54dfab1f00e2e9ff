"""Histogram distances, per-class templates, nearest-template classification."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .descriptor import GridDescriptor
from .errors import LbpxError, ModelFormatError, ModelMismatchError, ParameterError, TrainingError
from .image import fields_equal, frozen_array, open_file, read_text_file
from .lbp import LbpParams

METRICS = ("chi2", "wchi2", "intersect", "l1")

MODEL_FORMAT_VERSION = 1


def _chi2_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b)^2 / (a + b), broadcast; 0/0 terms are 0 rather than smoothed."""
    total = a + b
    return np.divide(np.square(a - b), total, out=np.zeros(total.shape), where=total > 0)


def _same_layout(desc: GridDescriptor, like: GridDescriptor | Model, length: int) -> bool:
    """Whether `desc` has the params and grid of `like` and `length` values."""
    ours = desc.params, desc.grid_rows, desc.grid_cols, len(desc.values)
    return ours == (like.params, like.grid_rows, like.grid_cols, length)


def _distances(templates: np.ndarray, query: np.ndarray, metric: str, weights=None) -> np.ndarray:
    """Distance from each row of `templates` (K, D) to `query` (D,), as in `distance`.

    Callers have already checked the shapes, the metric and the weights.
    """
    if metric == "intersect":
        return 1.0 - np.minimum(templates, query).sum(axis=1)
    if metric == "l1":
        return np.abs(templates - query).sum(axis=1)
    terms = _chi2_terms(templates, query)
    if metric == "chi2":
        return terms.sum(axis=1)
    regions = terms.reshape(len(templates), len(weights), -1).sum(axis=2)
    with np.errstate(over="ignore"):  # a huge weight gives an infinite distance, never NaN
        return (regions * weights).sum(axis=1)


def distance(a, b, metric: str = "chi2", weights=None) -> float:
    """Distance between two descriptor value vectors.

    chi2       sum (a-b)^2 / (a+b), skipping bins where a+b == 0
    wchi2      chi2 with each region's partial sum scaled by its weight;
               `weights` must have one non-negative entry per region
    intersect  1 - sum min(a, b), for L1-normalized inputs
    l1         sum |a - b|
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if len(a) != len(b):
        raise ParameterError(f"descriptor lengths differ: {len(a)} vs {len(b)}")
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "wchi2":
        if weights is None:
            raise ParameterError("wchi2 requires per-region weights")
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if len(weights) == 0 or len(a) % len(weights) != 0:
            raise ParameterError(
                f"descriptor length {len(a)} is not divisible into {len(weights)} regions"
            )
        if np.any(weights < 0):
            raise ParameterError("region weights must be non-negative")
    return float(_distances(a[np.newaxis], b, metric, weights)[0])


def check_class_label(label, error: type[LbpxError]) -> None:
    """Raise `error` unless `label` is a legal class label.

    A legal label is a non-empty string with no newline, carriage return or
    tab, so `classify` prints it as one field of one line. Every `Model`
    checks its labels with it; `build_templates` also checks each sample's
    label before it groups and sorts them.
    """
    if not isinstance(label, str) or not label or any(c in label for c in "\n\r\t"):
        raise error(
            f"class label must be a non-empty string without newline, carriage return "
            f"or tab, got {label!r}"
        )


@dataclass(frozen=True, eq=False)
class Model:
    """Per-class template descriptors plus the configuration that produced them.

    Class labels pass `check_class_label`, are unique and are stored in
    ascending lexicographic order; templates[i] belongs to class_labels[i].
    Every region of the rows x cols grid has one bin per label of `params`.
    Bins lie in [0, 1]; the optional per-region weights are finite and >= 0.
    """

    params: LbpParams
    grid_rows: int
    grid_cols: int
    class_labels: tuple[str, ...]
    templates: np.ndarray
    region_weights: np.ndarray | None = None

    def __post_init__(self):
        labels = self.class_labels
        for label in labels:
            check_class_label(label, ParameterError)
        if not labels or list(labels) != sorted(set(labels)):
            raise ParameterError(f"class labels must be non-empty, unique and sorted: {labels!r}")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ParameterError(f"grid {self.grid_rows}x{self.grid_cols} has no cells")
        regions = self.grid_rows * self.grid_cols
        bins = self.params.label_count
        templates = frozen_array(self.templates, np.float64)
        if templates.shape != (len(labels), regions * bins):
            raise ParameterError(
                f"templates of shape {templates.shape} are not one row per class "
                f"({len(labels)}) of {regions} regions x {bins} labels"
            )
        object.__setattr__(self, "templates", templates)
        weights = self.region_weights
        if weights is not None:
            weights = frozen_array(weights, np.float64)
            if weights.shape != (regions,):
                raise ParameterError(f"need {regions} region weights, got shape {weights.shape}")
            object.__setattr__(self, "region_weights", weights)
        # NaN fails every comparison; a template bin is a normalized count
        if not np.all((templates >= 0) & (templates <= 1)):
            raise ParameterError("template bins must lie in [0, 1]")
        if weights is not None and not np.all((weights >= 0) & (weights < np.inf)):
            raise ParameterError("region weights must be finite and non-negative")

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    __eq__ = fields_equal


def build_templates(samples, region_weights=None) -> Model:
    """Average each class's sample descriptors into one template per class.

    `samples` is a sequence of (class label, GridDescriptor) pairs sharing a
    single configuration; each template's region slices are re-normalized to
    sum 1 after averaging.
    """
    samples = list(samples)
    if not samples:
        raise TrainingError("no training samples")
    reference = samples[0][1]
    by_class: dict[str, list[np.ndarray]] = {}
    for label, desc in samples:
        check_class_label(label, TrainingError)
        if not _same_layout(desc, reference, len(reference.values)):
            raise TrainingError(
                f"sample for class {label!r} has a different descriptor configuration"
            )
        by_class.setdefault(label, []).append(desc.values)

    labels = tuple(sorted(by_class))
    means = np.array([np.mean(by_class[label], axis=0) for label in labels])
    try:
        # the Model checks the region layout the reshape below relies on
        model = Model(
            params=reference.params,
            grid_rows=reference.grid_rows,
            grid_cols=reference.grid_cols,
            class_labels=labels,
            templates=means,
            region_weights=region_weights,
        )
    except ParameterError as exc:
        raise TrainingError(str(exc)) from None
    regions = means.reshape(len(labels), reference.region_count, -1)
    sums = regions.sum(axis=2, keepdims=True)
    np.divide(regions, sums, out=regions, where=sums > 0)
    return replace(model, templates=means)


def predict(model: Model, query: GridDescriptor, metric: str = "chi2") -> tuple[str, np.ndarray]:
    """Nearest-template class of `query` plus per-class distances in model order.

    Ties break toward the lexicographically smallest label.
    """
    if not _same_layout(query, model, model.templates.shape[1]):
        raise ModelMismatchError("query descriptor configuration does not match the model")
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "wchi2" and model.region_weights is None:
        raise ParameterError("wchi2 requires a model with region weights")
    scores = _distances(model.templates, query.values, metric, model.region_weights)
    # labels are sorted, so the first minimum is the lexicographically smallest
    winner = int(np.argmin(scores))
    return model.class_labels[winner], scores


def serialize_model(model: Model) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "params": model.params.to_json_dict(),
        "grid": [model.grid_rows, model.grid_cols],
        "classes": [
            {"label": label, "template": [float(v) for v in model.templates[i]]}
            for i, label in enumerate(model.class_labels)
        ],
    }
    if model.region_weights is not None:
        doc["weights"] = [float(w) for w in model.region_weights]
    return json.dumps(doc, indent=2) + "\n"


def _json_typed(value, what: str, *kinds: type):
    """`value` if its type is exactly one of `kinds`, else TypeError: a bool is no int here."""
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{what} must be of JSON type {names}, got {value!r}")
    return value


def _json_numbers(values, what: str) -> list:
    """`values` if it is a JSON array of numbers, else TypeError (bool is no number here)."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise TypeError(f"{what} must be an array of numbers")
    return values


def deserialize_model(text: str) -> Model:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise ModelFormatError(f"model file cannot be parsed as JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("model file is nested too deeply to parse") from None
    try:
        version = _json_typed(doc["format_version"], "format_version", int)
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format version {version}")
        spec = doc["params"]
        params = LbpParams(
            neighbors=_json_typed(spec["neighbors"], "neighbors", int),
            radius=float(_json_typed(spec["radius"], "radius", int, float)),
            sampling=_json_typed(spec["sampling"], "sampling", str),
            mapping=_json_typed(spec["mapping"], "mapping", str),
        )
        rows, cols = (_json_typed(v, "grid size", int) for v in doc["grid"])
        labels = tuple(entry["label"] for entry in doc["classes"])
        templates = [_json_numbers(entry["template"], "template") for entry in doc["classes"]]
        weights = doc.get("weights")
        if weights is not None:
            _json_numbers(weights, "weights")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None
    # a bad params block above stays a ParameterError (exit 1); bad values below exit 2
    try:
        return Model(
            params=params,
            grid_rows=rows,
            grid_cols=cols,
            class_labels=labels,
            templates=templates,
            region_weights=weights,
        )
    except (ParameterError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"invalid model file: {exc}") from None


def save_model(model: Model, path) -> None:
    with open_file(path, "w") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> Model:
    return deserialize_model(read_text_file(path, ModelFormatError))
