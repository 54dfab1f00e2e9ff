"""Local binary pattern texture engine.

Grayscale images in, LBP label maps and grid histogram descriptors out,
with template-based classification, sliding-window detection, and an
evaluation/benchmark harness on top.
"""

from .classify import (
    METRICS,
    Model,
    build_templates,
    deserialize_model,
    distance,
    load_model,
    predict,
    save_model,
    serialize_model,
)
from .descriptor import GridDescriptor, describe_image, grid_descriptor
from .detect import Detection, iou, nms, scan_detect
from .errors import (
    BoundsError,
    EvaluationError,
    LbpxError,
    ManifestError,
    ModelFormatError,
    ModelMismatchError,
    ParameterError,
    PgmFormatError,
    TrainingError,
)
from .evaluate import (
    BenchmarkResult,
    EvalReport,
    Manifest,
    ManifestEntry,
    benchmark_fps,
    evaluate,
    load_manifest,
    load_manifest_file,
    train_model,
)
from .image import (
    GrayImage,
    IntegralImage,
    integral_image,
    load_pgm,
    load_pgm_file,
    region_sum,
    save_pgm,
    save_pgm_file,
)
from .lbp import (
    LbpMap,
    LbpParams,
    circular_offsets,
    lbp_code_3x3,
    lbp_code_circular,
    lbp_map,
    lbp_map_to_image,
)
from .mapping import MAPPING_MODES, MappingTable, build_mapping, label_count, uniformity

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "BoundsError",
    "Detection",
    "EvalReport",
    "EvaluationError",
    "GrayImage",
    "GridDescriptor",
    "IntegralImage",
    "LbpMap",
    "LbpParams",
    "LbpxError",
    "METRICS",
    "MAPPING_MODES",
    "Manifest",
    "ManifestEntry",
    "ManifestError",
    "MappingTable",
    "Model",
    "ModelFormatError",
    "ModelMismatchError",
    "ParameterError",
    "PgmFormatError",
    "TrainingError",
    "benchmark_fps",
    "build_mapping",
    "build_templates",
    "circular_offsets",
    "describe_image",
    "deserialize_model",
    "distance",
    "evaluate",
    "grid_descriptor",
    "integral_image",
    "iou",
    "label_count",
    "lbp_code_3x3",
    "lbp_code_circular",
    "lbp_map",
    "lbp_map_to_image",
    "load_manifest",
    "load_manifest_file",
    "load_model",
    "load_pgm",
    "load_pgm_file",
    "nms",
    "predict",
    "region_sum",
    "save_model",
    "save_pgm",
    "save_pgm_file",
    "scan_detect",
    "serialize_model",
    "train_model",
    "uniformity",
]
