"""Exception types raised across the package; `exit_code` is the CLI exit status."""


class LbpxError(Exception):
    """Base class for all lbpx errors."""

    exit_code = 1


class PgmFormatError(LbpxError):
    """Malformed or unsupported PGM data."""

    exit_code = 2


class BoundsError(LbpxError):
    """Coordinate or rectangle outside the valid range."""


class ParameterError(LbpxError):
    """Invalid operator parameter or incompatible argument combination."""


class CorruptMapError(LbpxError):
    """Label map contains values outside its declared label space."""


class TrainingError(LbpxError):
    """Template construction received unusable training input."""


class ModelFormatError(LbpxError):
    """Model file cannot be parsed into a valid model."""

    exit_code = 2


class ModelMismatchError(LbpxError):
    """Query or scene configuration disagrees with the model."""

    exit_code = 3


class ManifestError(LbpxError):
    """Malformed dataset manifest."""

    exit_code = 2


class EvaluationError(LbpxError):
    """Evaluation pipeline failure (unreadable entry, unknown test label)."""

    exit_code = 3
