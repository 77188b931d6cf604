"""Exception hierarchy shared by every stage of the pipeline."""

from dataclasses import fields
from numbers import Integral


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PipelineError):
    """Array shapes do not match what an operation requires."""


class DomainError(PipelineError):
    """A value is outside the mathematical domain of an operation."""


class AlignmentError(PipelineError):
    """A montage source electrode is missing from a recording."""


class NumericError(PipelineError):
    """A computation produced non-finite values."""


class ConfigurationError(PipelineError):
    """Inconsistent or incomplete configuration."""


class ProtocolError(PipelineError):
    """An evaluation protocol precondition is violated."""


class ManifestError(PipelineError):
    """A dataset manifest is malformed."""


class IntegrityError(PipelineError):
    """A serialized file is corrupt, truncated, or of an unknown version."""


class FingerprintMismatchError(ConfigurationError):
    """Checkpoint preprocessing fingerprint disagrees with the data."""


def require_positive_ints(config) -> None:
    """Refuse a config dataclass with an ``int`` field that is not an integer
    >= 1: a float such as 16.0 from a checkpoint would fail later."""
    for field in fields(config):
        value = getattr(config, field.name)
        if field.type in ("int", int) and (
                isinstance(value, bool) or not isinstance(value, Integral)
                or value < 1):
            raise ConfigurationError(
                f"{field.name} must be an integer >= 1, got {value!r}")
