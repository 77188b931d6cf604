"""Exception hierarchy shared by every stage of the pipeline."""

import os
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


class ChecksumError(IntegrityError):
    """A serialized file's stored checksum does not match its bytes."""


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


def require_memory(nbytes: int, what: str) -> None:
    """Refuse ``what`` before anything is allocated when its ``nbytes``
    exceed the machine's physical memory (no bound where the system does not
    report it): numpy would refuse the allocation, or raise a ValueError past
    the sizes it can index."""
    if hasattr(os, "sysconf") and \
            nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigurationError(f"{what} would take {nbytes} bytes, more than "
                                 "this machine's memory")


def require_number(value, error: type[PipelineError], where: str, integer=False):
    """Return ``value`` if it is an int, or unless ``integer`` is set a float
    or an int that fits in one (never a bool or a string), else raise
    ``error`` naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise error(f"{where} must be {'an integer' if integer else 'a number'}, "
                    f"got {value!r}")
    if not integer:
        try:
            float(value)
        except OverflowError:
            raise error(f"{where} must fit in a float, got a huge int") from None
    return value


def require_class_table(classes, error: type[PipelineError], where: str,
                        size: int | None = None) -> dict[str, int]:
    """Return ``classes`` if it is a non-empty dict of names to plain ints
    (no bools) holding each of 0..K-1 exactly once, else raise ``error``
    naming ``where`` and the table. K is ``size`` (a head's class count) or
    else the table's own size."""
    indices = list(classes.values()) if isinstance(classes, dict) else []
    if not indices:
        raise error(f"{where} must be a non-empty table of class names to "
                    f"indices, got {classes!r}")
    k = len(indices) if size is None else size
    if any(type(i) is not int for i in indices) or sorted(indices) != list(range(k)):
        raise error(f"{where} must map class names to the int indices "
                    f"0..{k - 1}, each once, got {classes!r}")
    return classes
