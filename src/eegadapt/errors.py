"""Exception hierarchy shared by every stage of the pipeline."""


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
