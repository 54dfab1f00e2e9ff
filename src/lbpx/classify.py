"""Histogram distances, per-class templates, nearest-template classification."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .descriptor import GridDescriptor, _checked_bins
from .errors import LbpxError, ModelFormatError, ModelMismatchError, ParameterError, TrainingError
from .image import fields_equal, frozen_array, open_file, read_text_file
from .lbp import LbpParams

METRICS = ("chi2", "wchi2", "intersect", "l1")

MODEL_FORMAT_VERSION = 1

# the one encoder of every JSON document lbpx writes; it lists each array as it reaches it
_JSON = json.JSONEncoder(indent=2, default=np.ndarray.tolist)


def _chi2_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b)^2 / (a + b), broadcast; 0/0 terms are 0 rather than smoothed."""
    total = a + b
    return np.divide(np.square(a - b), total, out=np.zeros(total.shape), where=total > 0)


def _same_layout(desc: GridDescriptor, like: GridDescriptor | Model) -> bool:
    """Whether `desc` has the params and grid, and so the bin count, of `like`."""
    ours = desc.params, desc.grid_rows, desc.grid_cols
    return ours == (like.params, like.grid_rows, like.grid_cols)


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


def _check_weights(weights: np.ndarray) -> None:
    # NaN fails every comparison
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ParameterError("region weights must be finite and non-negative")


def _check_metric(metric: str, weights) -> None:
    """Raise ParameterError unless `metric` is known and, for wchi2, `weights` are given."""
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "wchi2" and weights is None:
        raise ParameterError("wchi2 requires region weights")


def distance(a, b, metric: str = "chi2", weights=None) -> float:
    """Distance between two descriptor value vectors.

    chi2       sum (a-b)^2 / (a+b), skipping bins where a+b == 0
    wchi2      chi2 with each region's partial sum scaled by its weight;
               `weights` must have one finite, non-negative entry per region
    intersect  1 - sum min(a, b), for L1-normalized inputs
    l1         sum |a - b|
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if len(a) != len(b):
        raise ParameterError(f"descriptor lengths differ: {len(a)} vs {len(b)}")
    _check_metric(metric, weights)
    if metric == "wchi2":
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if len(weights) == 0 or len(a) % len(weights) != 0:
            raise ParameterError(
                f"descriptor length {len(a)} is not divisible into {len(weights)} regions"
            )
        _check_weights(weights)
    return float(_distances(a[np.newaxis], b, metric, weights)[0])


def check_class_label(label, error: type[LbpxError]) -> None:
    """Raise `error` unless `label` is a legal class label.

    A legal label is a non-empty string with no newline, carriage return or
    tab, so `classify` prints it as one field of one line. Every `Model`
    checks its labels with it; `build_templates` also checks each sample's
    label as it reads the sample.
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
    The templates pass `_checked_bins`, one row per class; the optional
    per-region weights are finite and >= 0.
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
        object.__setattr__(self, "templates", _checked_bins(self, self.templates, (len(labels),)))
        weights = self.region_weights
        if weights is not None:
            weights = frozen_array(weights, np.float64)
            regions = self.grid_rows * self.grid_cols
            if weights.shape != (regions,):
                raise ParameterError(f"need {regions} region weights, got shape {weights.shape}")
            _check_weights(weights)
            object.__setattr__(self, "region_weights", weights)

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    __eq__ = fields_equal


def build_templates(samples) -> Model:
    """Average each class's sample descriptors into one template per class.

    `samples` is an iterable of (class label, GridDescriptor) pairs sharing a
    single configuration. It is read once, into one running sum per class,
    and the first bad sample stops it. Each template's region slices are
    re-normalized to sum 1 after averaging.
    """
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    reference = None
    for label, desc in samples:
        check_class_label(label, TrainingError)
        reference = reference or desc
        if not _same_layout(desc, reference):
            raise TrainingError(
                f"sample for class {label!r} has a different descriptor configuration"
            )
        if label in sums:
            sums[label] += desc.values
        else:
            sums[label] = desc.values.copy()
        counts[label] = counts.get(label, 0) + 1
    if reference is None:
        raise TrainingError("no training samples")
    labels = tuple(sorted(sums))
    # valid descriptors give means, and so normalized bins, in [0, 1]; each
    # sum is dropped once divided
    means = np.array([sums.pop(label) / counts[label] for label in labels])
    regions = means.reshape(len(labels), reference.region_count, -1)
    totals = regions.sum(axis=2, keepdims=True)
    np.divide(regions, totals, out=regions, where=totals > 0)
    return Model(reference.params, reference.grid_rows, reference.grid_cols, labels, means)


def predict(model: Model, query: GridDescriptor, metric: str = "chi2") -> tuple[str, np.ndarray]:
    """Nearest-template class of `query` plus per-class distances in model order.

    Ties break toward the lexicographically smallest label.
    """
    if not _same_layout(query, model):
        raise ModelMismatchError("query descriptor configuration does not match the model")
    _check_metric(metric, model.region_weights)
    scores = _distances(model.templates, query.values, metric, model.region_weights)
    # labels are sorted, so the first minimum is the lexicographically smallest
    winner = int(np.argmin(scores))
    return model.class_labels[winner], scores


def _model_document(model: Model) -> dict:
    """The model file's JSON document, holding the model's own arrays."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "params": asdict(model.params),
        "grid": [model.grid_rows, model.grid_cols],
        "classes": [
            {"label": label, "template": template}
            for label, template in zip(model.class_labels, model.templates)
        ],
    }
    if model.region_weights is not None:
        doc["weights"] = model.region_weights
    return doc


def _write_json(doc, fh) -> None:
    chunks = _JSON.iterencode(doc)  # in batches: unbuffered, each write is a system call
    while batch := list(islice(chunks, 8192)):
        fh.write("".join(batch))
    fh.write("\n")


def serialize_model(model: Model) -> str:
    return _JSON.encode(_model_document(model)) + "\n"


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
        _write_json(_model_document(model), fh)


def load_model(path) -> Model:
    return deserialize_model(read_text_file(path, ModelFormatError))
