"""Dataset assembly: manifest -> filtered windows -> aligned model inputs.

A WindowSet is the unit the training and evaluation commands consume. It
records the preprocessing fingerprint (filter settings, window length,
alignment) so a checkpoint can refuse data prepared differently.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import extract_windows, window_count
from .errors import (
    ConfigurationError,
    DomainError,
    FingerprintMismatchError,
    IntegrityError,
)
from .fileio import read_bundle, write_bundle
from .filters import apply_chain_to_rows, design_bandpass, design_notch
from .manifest import SPLITS, DatasetManifest, load_recording, size_recording
from .montage import TARGET_ORDER, MontageMap, mix_channels, montage_identity
from .training import LabeledSet

logger = logging.getLogger(__name__)

__all__ = [
    "FilterSettings",
    "WindowSet",
    "preprocess_manifest",
    "align_window_set",
    "save_window_set",
    "load_window_set",
    "check_fingerprint",
]


@dataclass(frozen=True)
class FilterSettings:
    """Notch and bandpass settings; the defaults are the CLI's defaults."""

    notch_hz: float = 50.0
    notch_q: float = 30.0
    band_low_hz: float = 0.1
    band_high_hz: float = 75.0
    band_order: int = 4


@dataclass
class WindowSet:
    """Fixed-shape samples plus everything needed to reproduce them."""

    data: np.ndarray              # (N, C, T) float64
    labels: np.ndarray            # (N,) int64
    subjects: np.ndarray          # (N,) str
    splits: np.ndarray            # (N,) str, each one of manifest.SPLITS
    sample_rates: np.ndarray      # (N,) float64
    channel_labels: list[str]
    classes: dict[str, int]
    fingerprint: dict

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def mask(self, split: str) -> np.ndarray:
        """Boolean row mask of one split ('train', 'val', 'test', or 'all')."""
        if split == "all":
            return np.ones(len(self), dtype=bool)
        return self.splits == split

    def select(self, split: str, keep: np.ndarray | None = None,
               labels: np.ndarray | None = None) -> LabeledSet:
        """One split ('train', 'val', 'test', or 'all') as a ``LabeledSet``.

        ``keep`` is an optional row mask ANDed with the split's; ``labels``
        optionally replaces ``self.labels`` (e.g. remapped class indices).
        A split that keeps every row holds this set's arrays, not copies.
        """
        mask = self.mask(split)
        if keep is not None:
            mask &= keep
        y = self.labels if labels is None else labels
        if mask.all():
            return LabeledSet(x=self.data, y=y, subjects=self.subjects)
        return LabeledSet(
            x=self.data[mask],
            y=y[mask],
            subjects=self.subjects[mask],
        )

    def require_assigned(self) -> None:
        if np.any(self.splits == "unassigned"):
            raise ConfigurationError(
                "window set contains unassigned samples; configure a split "
                "strategy (subject-independent splitting) first"
            )


def preprocess_manifest(manifest: DatasetManifest, filters: FilterSettings,
                        window_len: int) -> WindowSet:
    """Load, convert to microvolts, filter (notch then bandpass), window.

    Every recording in a manifest must share one channel layout; filters are
    designed per distinct sample rate and cached. Every recording is sized
    before any is loaded (a binary file from its header; a text file is
    parsed, and the array is kept until its turn), so the windows fill one
    array allocated once, each recording's rows in manifest order: the peak
    is one window set plus one recording's working set.
    """
    recordings = manifest.recordings
    channel_labels = recordings[0].channel_labels if recordings else []
    sized, counts = [], []
    for entry in recordings:
        shape, parsed = size_recording(entry, manifest.base_dir)
        if entry.channel_labels != channel_labels:
            raise ConfigurationError(
                f"{entry.path}: channel labels differ from the first recording; "
                "a manifest must use one acquisition layout"
            )
        sized.append((shape, parsed))
        counts.append(window_count(shape[1], window_len))

    chains: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def windows_of(entry, shape, parsed) -> np.ndarray:
        data = load_recording(entry, manifest.base_dir, parsed)
        if data.shape != shape:
            raise IntegrityError(
                f"{entry.path} changed while it was preprocessed: sized as "
                f"{shape[0]}x{shape[1]}, read as {data.shape[0]}x{data.shape[1]}"
            )
        fs = entry.sample_rate_hz
        if fs not in chains:
            chains[fs] = (
                design_notch(filters.notch_hz, fs, filters.notch_q),
                design_bandpass(filters.band_low_hz, filters.band_high_hz,
                                filters.band_order, fs),
            )
        notch, band = chains[fs]
        filtered = apply_chain_to_rows(band, apply_chain_to_rows(notch, data))
        return extract_windows(filtered, window_len)

    windows = np.empty((sum(counts), len(channel_labels), window_len))
    row = 0
    for idx, (entry, n) in enumerate(zip(recordings, counts)):
        windows[row:row + n] = windows_of(entry, *sized[idx])
        sized[idx] = None  # a parsed text recording goes after its turn
        row += n
        logger.debug("recording %d (%s): %d windows", idx, entry.path, n)

    if not row:
        raise ConfigurationError(
            f"no windows of length {window_len} could be extracted"
        )

    def per_window(values, dtype) -> np.ndarray:
        return np.repeat(np.array(values, dtype=dtype), counts)

    fingerprint = asdict(filters)
    fingerprint.update({
        "window_len": window_len,
        "alignment": "none",
        "montage": None,
        "target_len": None,
        "channels": len(channel_labels),
        "timesteps": window_len,
    })
    return WindowSet(
        data=windows,
        labels=per_window([manifest.classes[e.label] for e in recordings], np.int64),
        subjects=per_window([e.subject_id for e in recordings], str),
        splits=per_window([e.split for e in recordings], str),
        sample_rates=per_window([e.sample_rate_hz for e in recordings], np.float64),
        channel_labels=channel_labels,
        classes=dict(manifest.classes),
        fingerprint=fingerprint,
    )


def align_window_set(wset: WindowSet, mode: str, montage: MontageMap,
                     target_len: int) -> WindowSet:
    """Apply select or mix alignment to every window in one gather.

    The fingerprint names the montage by the content hash of the whole map,
    in select mode too.
    """
    if mode not in ("select", "mix"):
        raise ConfigurationError(f"alignment mode must be 'select' or 'mix', got {mode!r}")
    if wset.fingerprint.get("alignment") != "none":
        raise ConfigurationError("window set is already aligned")
    montage_name = montage_identity(montage)
    if mode == "select":
        montage = montage.first_sources()
    aligned = mix_channels(wset.data, wset.channel_labels, montage, target_len)
    fingerprint = dict(wset.fingerprint)
    fingerprint.update({
        "alignment": mode,
        "montage": montage_name,
        "target_len": target_len,
        "channels": 23,
        "timesteps": target_len,
    })
    return replace(wset, data=aligned, channel_labels=list(TARGET_ORDER),
                   fingerprint=fingerprint)


def save_window_set(path, wset: WindowSet, header: dict | None = None) -> None:
    meta = {
        "kind": "window-set",
        "version": 1,
        "subjects": wset.subjects.tolist(),
        "splits": wset.splits.tolist(),
        "channel_labels": wset.channel_labels,
        "classes": wset.classes,
        "fingerprint": wset.fingerprint,
        "header": header or {},
    }
    write_bundle(path, meta, [
        ("data", wset.data),
        ("labels", wset.labels),
        ("sample_rates", wset.sample_rates),
    ])


_META_TYPES = (("subjects", list), ("splits", list), ("channel_labels", list),
               ("classes", dict), ("fingerprint", dict))


def load_window_set(path) -> WindowSet:
    """Read a window set, checking its schema, shapes and values once."""
    meta, arrays = read_bundle(path)
    if meta.get("kind") != "window-set" or meta.get("version") != 1:
        raise ConfigurationError(f"{path} is not a version-1 window set")
    for key, kind in _META_TYPES:
        if not isinstance(meta.get(key), kind):
            raise IntegrityError(
                f"{path}: window-set meta {key!r} must be a {kind.__name__}"
            )
    for name in ("data", "labels", "sample_rates"):
        if name not in arrays:
            raise IntegrityError(f"{path}: window set has no {name!r} array")
    data, rates = arrays["data"], arrays["sample_rates"]
    channels = len(meta["channel_labels"])
    if data.dtype.kind != "f" or data.ndim != 3 or data.shape[1] != channels \
            or data.shape[2] < 1:
        raise IntegrityError(
            f"{path}: 'data' holds {data.dtype} of shape {data.shape}, expected "
            f"floats (N, {channels}, T>=1), one row per entry of 'channel_labels'"
        )
    data = data.astype(np.float64, copy=False)
    n = data.shape[0]
    shapes = {"labels": arrays["labels"].shape, "sample_rates": rates.shape,
              "subjects": (len(meta["subjects"]),), "splits": (len(meta["splits"]),)}
    for name, shape in shapes.items():
        if shape != (n,):
            raise IntegrityError(f"{path}: {name!r} has shape {shape}, expected ({n},)")
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{path}: 'data' contains non-finite samples")
    if rates.dtype.kind != "f" or not np.all(rates > 0):
        raise DomainError(f"{path}: 'sample_rates' must all be positive floats")
    if not all(isinstance(c, str) for c in meta["channel_labels"]):
        raise IntegrityError(f"{path}: 'channel_labels' must hold strings")
    if not all(isinstance(s, str) and "\0" not in s for s in meta["subjects"]):
        raise IntegrityError(
            f"{path}: 'subjects' must hold one string without NUL per window")
    if not all(s in SPLITS for s in meta["splits"]):
        raise IntegrityError(f"{path}: 'splits' must hold one of {SPLITS} per window")
    classes = meta["classes"]
    if not all(type(v) is int for v in classes.values()) \
            or sorted(classes.values()) != list(range(len(classes))):
        raise IntegrityError(
            f"{path}: 'classes' must map names to the dense int indices "
            f"0..{len(classes) - 1}")
    labels = arrays["labels"]
    if not np.all(np.isfinite(labels) & (labels == np.round(labels))):
        raise IntegrityError(f"{path}: 'labels' must hold finite whole numbers")
    if not np.all(np.isin(labels, list(classes.values()))):
        raise DomainError(f"{path}: 'labels' holds indices missing from 'classes'")
    return WindowSet(
        data=data,
        labels=labels.astype(np.int64),
        subjects=np.array(meta["subjects"], dtype=str),
        splits=np.array(meta["splits"], dtype=str),
        sample_rates=rates,
        channel_labels=list(meta["channel_labels"]),
        classes=dict(classes),
        fingerprint=meta["fingerprint"],
    )


def check_fingerprint(expected: dict, actual: dict) -> None:
    """Refuse to mix a checkpoint with differently prepared data."""
    keys = sorted(set(expected) | set(actual))
    diffs = [
        f"{k}: checkpoint={expected.get(k)!r} data={actual.get(k)!r}"
        for k in keys
        if expected.get(k) != actual.get(k)
    ]
    if diffs:
        raise FingerprintMismatchError(
            "preprocessing fingerprint mismatch; " + "; ".join(diffs)
        )
