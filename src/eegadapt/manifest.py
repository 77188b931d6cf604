"""Dataset manifests: per-recording metadata, class tables, and
subject-independent splitting.

A manifest is a JSON document:

    {
      "classes": {"cat": 0, "dog": 1},
      "montage": "builtin-table1",          # or a map file path
      "recordings": [
        {"path": "rec/s01_000.raw",
         "format": "f32-binary",            # or "delimited-text"
         "channel_labels": ["Fp1", ...],
         "sample_rate_hz": 200.0,
         "resolution": [0.1, ...],          # optional; marks quantized data
         "label": "cat",
         "subject_id": "s01",
         "split": "train"}                  # train | val | test | unassigned
      ]
    }

Recording paths are resolved relative to the manifest file. Quantized
recordings (those with a resolution vector) are converted to microvolts at
load time. A loaded recording is an (E, T) float64 microvolt matrix; its
label, subject, rate and channel labels stay on the manifest entry.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, DimensionError, DomainError, ManifestError,
                     require_class_table, require_number)
from .fileio import (
    read_recording_binary,
    read_recording_header,
    read_recording_text,
    read_text,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ManifestEntry",
    "DatasetManifest",
    "load_manifest",
    "size_recording",
    "load_recording",
    "split_subject_independent",
]

FORMATS = ("f32-binary", "delimited-text")
SPLITS = ("train", "val", "test", "unassigned")


@dataclass
class ManifestEntry:
    path: str
    format: str
    channel_labels: list[str]
    sample_rate_hz: float
    label: str
    subject_id: str
    split: str = "unassigned"
    resolution: list[float] | None = None


@dataclass
class DatasetManifest:
    classes: dict[str, int]
    recordings: list[ManifestEntry]
    montage: str = "builtin-table1"
    base_dir: Path = field(default_factory=Path)

    def subjects(self) -> list[str]:
        return sorted({entry.subject_id for entry in self.recordings})


def _validate_entry(i: int, raw, classes: dict[str, int],
                    base_dir: Path) -> ManifestEntry:
    where = f"recording entry {i}"
    if not isinstance(raw, dict):
        raise ManifestError(f"{where} must be an object, got {raw!r}")

    def need(key):
        if key not in raw:
            raise ManifestError(f"{where} is missing {key!r}")
        return raw[key]

    fmt = need("format")
    if fmt not in FORMATS:
        raise ManifestError(f"{where}: unknown format tag {fmt!r}")
    split = raw.get("split", "unassigned")
    if split not in SPLITS:
        raise ManifestError(f"{where}: unknown split tag {split!r}")
    label = str(need("label"))
    if label not in classes:
        raise ManifestError(f"{where}: label {label!r} is not in the class table")
    rate = float(require_number(need("sample_rate_hz"), ManifestError,
                                f"{where}: sample_rate_hz"))
    if not (rate > 0 and math.isfinite(rate)):
        raise ManifestError(f"{where}: sample_rate_hz must be positive and finite")
    labels = need("channel_labels")
    if not isinstance(labels, list):
        raise ManifestError(f"{where}: channel_labels must be a list, got {labels!r}")
    if not labels:
        raise ManifestError(f"{where}: channel_labels is empty")
    labels = [str(s).strip() for s in labels]
    path = str(need("path"))
    if not (base_dir / path).exists():
        raise ManifestError(f"{where}: file not found: {base_dir / path}")
    subject = need("subject_id")
    if not isinstance(subject, str) or "\0" in subject:
        raise ManifestError(
            f"{where}: subject_id must be a string without NUL, got {subject!r}")
    resolution = raw.get("resolution")
    if resolution is not None:
        if not isinstance(resolution, list):
            raise ManifestError(f"{where}: resolution must be a list, got {resolution!r}")
        resolution = [float(require_number(v, ManifestError, f"{where}: resolution"))
                      for v in resolution]
        if len(resolution) != len(labels):
            raise ManifestError(
                f"{where}: resolution has {len(resolution)} entries for "
                f"{len(labels)} channels"
            )
        if not all(0 < v < math.inf for v in resolution):
            raise ManifestError(
                f"{where}: resolution entries must be positive and finite")
    return ManifestEntry(
        path=path,
        format=fmt,
        channel_labels=labels,
        sample_rate_hz=rate,
        label=label,
        subject_id=subject,
        split=split,
        resolution=resolution,
    )


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a manifest; errors name the offending entry."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    try:
        doc = json.loads(read_text(path))
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path} must contain a JSON object")
    classes = require_class_table(doc.get("classes"), ManifestError, f"{path}: 'classes'")
    base_dir = path.parent
    raw_entries = doc.get("recordings", [])
    if not isinstance(raw_entries, list):
        raise ManifestError(f"{path}: recordings must be a list")
    if not raw_entries:
        raise ManifestError(f"{path} lists no recordings")
    entries = [
        _validate_entry(i, raw, classes, base_dir)
        for i, raw in enumerate(raw_entries)
    ]
    return DatasetManifest(
        classes=classes,
        recordings=entries,
        montage=str(doc.get("montage", "builtin-table1")),
        base_dir=base_dir,
    )


def _check_shape(entry: ManifestEntry, shape: tuple[int, int]) -> None:
    if shape[0] != len(entry.channel_labels):
        raise ManifestError(
            f"{entry.path}: file holds {shape[0]} channels, manifest "
            f"lists {len(entry.channel_labels)}"
        )
    if shape[1] < 1:
        raise DimensionError("recording must contain at least one sample")


def size_recording(entry: ManifestEntry,
                   base_dir: Path) -> tuple[tuple[int, int], np.ndarray | None]:
    """One entry's (E, T), checked against the entry, before its samples
    are loaded: a binary file's from its header. A delimited-text file has
    no header, so it is parsed here, and its float64 array comes back to be
    passed to ``load_recording``; a binary file gives None."""
    path = base_dir / entry.path
    if entry.format == "f32-binary":
        shape, data = read_recording_header(path), None
    else:
        data = read_recording_text(path)
        shape = data.shape
    _check_shape(entry, shape)
    return shape, data


def load_recording(entry: ManifestEntry, base_dir: Path,
                   data: np.ndarray | None = None) -> np.ndarray:
    """Read one entry's (E, T) matrix and return it in microvolts.

    ``data`` is the file's array when ``size_recording`` already parsed it.
    Quantized entries are rounded to whole counts and scaled row by row:
    sample (c, t) is ``resolution[c] * rint(count[c, t])``.
    """
    if data is None:
        read = (read_recording_binary if entry.format == "f32-binary"
                else read_recording_text)
        data = read(base_dir / entry.path)
    _check_shape(entry, data.shape)
    if entry.resolution is not None:
        data = np.array(entry.resolution)[:, None] * np.rint(data)
    # After scaling: NaN counts stay NaN, and an overflowing product shows.
    if not np.all(np.isfinite(data)):
        raise DomainError("recording contains non-finite samples")
    return data


def split_subject_independent(manifest: DatasetManifest, fractions,
                              seed: int = 0) -> DatasetManifest:
    """Assign splits so every subject's recordings land in exactly one split.

    ``fractions`` is (train, val, test) summing to 1. Subjects are shuffled
    with the seed and partitioned by largest-remainder counts; the manifest
    comes back with every entry assigned.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or not all(f >= 0 for f in fractions):
        raise ConfigurationError("fractions must be 3 non-negative numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"fractions must sum to 1, got {sum(fractions)}")
    subjects = manifest.subjects()
    if len(subjects) < 3:
        raise ConfigurationError(
            f"need at least 3 subjects to form 3 splits, got {len(subjects)}"
        )
    rng = np.random.default_rng(seed)
    shuffled = [subjects[i] for i in rng.permutation(len(subjects))]

    n = len(subjects)
    exact = [f * n for f in fractions]
    counts = [int(np.floor(v)) for v in exact]
    remainders = [v - c for v, c in zip(exact, counts)]
    while sum(counts) < n:
        best = int(np.argmax(remainders))
        counts[best] += 1
        remainders[best] = -1.0
    # Every split must receive at least one subject.
    for i in range(3):
        if counts[i] == 0:
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[i] += 1

    assignment: dict[str, str] = {}
    cursor = 0
    for split_name, count in zip(("train", "val", "test"), counts):
        for sid in shuffled[cursor : cursor + count]:
            assignment[sid] = split_name
        cursor += count

    entries = [replace(entry, split=assignment[entry.subject_id])
               for entry in manifest.recordings]
    logger.debug("subject split counts: %s", counts)
    return replace(manifest, recordings=entries)
