"""Dataset assembly: manifest -> filtered windows -> aligned model inputs.

A WindowSet is the unit the training and evaluation commands consume. It
records the preprocessing fingerprint (filter settings, window length,
alignment) so a checkpoint can refuse data prepared differently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Recording, extract_windows
from .errors import ConfigurationError, FingerprintMismatchError
from .fileio import read_bundle, write_bundle
from .filters import apply_chain_to_rows, design_bandpass, design_notch
from .manifest import DatasetManifest, load_recording
from .montage import (
    AlignmentMode,
    MontageMap,
    mix_channels,
    nearest_channel_select,
)
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
    notch_hz: float = 50.0
    notch_q: float = 30.0
    band_low_hz: float = 0.1
    band_high_hz: float = 75.0
    band_order: int = 4

    def as_fingerprint(self) -> dict:
        return {
            "notch_hz": self.notch_hz,
            "notch_q": self.notch_q,
            "band_low_hz": self.band_low_hz,
            "band_high_hz": self.band_high_hz,
            "band_order": self.band_order,
        }


@dataclass
class WindowSet:
    """Fixed-shape samples plus everything needed to reproduce them."""

    data: np.ndarray              # (N, C, T) float64
    labels: np.ndarray            # (N,) int64
    subjects: list[str]
    splits: list[str]
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
        return np.array([s == split for s in self.splits], dtype=bool)

    def select(self, split: str) -> LabeledSet:
        """Materialize one split ('train', 'val', 'test', or 'all')."""
        mask = self.mask(split)
        return LabeledSet(
            x=self.data[mask],
            y=self.labels[mask],
            subjects=[s for s, m in zip(self.subjects, mask) if m],
        )

    def require_assigned(self) -> None:
        if any(s == "unassigned" for s in self.splits):
            raise ConfigurationError(
                "window set contains unassigned samples; configure a split "
                "strategy (subject-independent splitting) first"
            )


def preprocess_manifest(manifest: DatasetManifest, filters: FilterSettings,
                        window_len: int) -> WindowSet:
    """Load, convert to microvolts, filter (notch then bandpass), window.

    Every recording in a manifest must share one channel layout; filters are
    designed per distinct sample rate and cached.
    """
    chains: dict[float, tuple] = {}
    data, labels, subjects, splits, rates = [], [], [], [], []
    channel_labels: list[str] | None = None

    for idx, entry in enumerate(manifest.recordings):
        rec = load_recording(entry, manifest.classes, manifest.base_dir)
        if channel_labels is None:
            channel_labels = rec.channel_labels
        elif rec.channel_labels != channel_labels:
            raise ConfigurationError(
                f"{entry.path}: channel labels differ from the first recording; "
                "a manifest must use one acquisition layout"
            )
        fs = rec.sample_rate_hz
        if fs not in chains:
            chains[fs] = (
                design_notch(filters.notch_hz, fs, filters.notch_q),
                design_bandpass(filters.band_low_hz, filters.band_high_hz,
                                filters.band_order, fs),
            )
        notch, band = chains[fs]
        filtered = apply_chain_to_rows(band, apply_chain_to_rows(notch, rec.data))
        clean = Recording(
            channel_labels=rec.channel_labels,
            sample_rate_hz=fs,
            data=filtered,
            subject_id=rec.subject_id,
            label=rec.label,
        )
        for window in extract_windows(clean, window_len, source_index=idx):
            data.append(window.data)
            labels.append(window.label)
            subjects.append(window.subject_id)
            splits.append(entry.split)
            rates.append(fs)
        logger.debug("recording %d (%s): %d windows", idx, entry.path,
                     clean.num_samples // window_len)

    if not data:
        raise ConfigurationError(
            f"no windows of length {window_len} could be extracted"
        )
    fingerprint = dict(filters.as_fingerprint())
    fingerprint.update({
        "window_len": window_len,
        "alignment": "none",
        "montage": None,
        "target_len": None,
        "channels": len(channel_labels),
        "timesteps": window_len,
    })
    return WindowSet(
        data=np.stack(data),
        labels=np.array(labels, dtype=np.int64),
        subjects=subjects,
        splits=splits,
        sample_rates=np.array(rates, dtype=np.float64),
        channel_labels=channel_labels,
        classes=dict(manifest.classes),
        fingerprint=fingerprint,
    )


def align_window_set(wset: WindowSet, mode: str, montage: MontageMap,
                     montage_name: str, target_len: int) -> WindowSet:
    """Apply select or mix alignment to every window."""
    if mode not in ("select", "mix"):
        raise ConfigurationError(f"alignment mode must be 'select' or 'mix', got {mode!r}")
    if wset.fingerprint.get("alignment") != "none":
        raise ConfigurationError("window set is already aligned")
    AlignmentMode(kind=mode, target_len=target_len).validate_for(montage)
    fn = nearest_channel_select if mode == "select" else mix_channels
    aligned = np.empty((len(wset), 23, target_len))
    out_labels: list[str] | None = None
    for i in range(len(wset)):
        rec = Recording(
            channel_labels=wset.channel_labels,
            sample_rate_hz=float(wset.sample_rates[i]),
            data=wset.data[i],
            subject_id=wset.subjects[i],
            label=int(wset.labels[i]),
        )
        out = fn(rec, montage, target_len)
        aligned[i] = out.data
        if out_labels is None:
            out_labels = out.channel_labels
    fingerprint = dict(wset.fingerprint)
    fingerprint.update({
        "alignment": mode,
        "montage": montage_name,
        "target_len": target_len,
        "channels": 23,
        "timesteps": target_len,
    })
    return WindowSet(
        data=aligned,
        labels=wset.labels.copy(),
        subjects=list(wset.subjects),
        splits=list(wset.splits),
        sample_rates=wset.sample_rates.copy(),
        channel_labels=out_labels,
        classes=dict(wset.classes),
        fingerprint=fingerprint,
    )


def save_window_set(path, wset: WindowSet, header: dict | None = None) -> None:
    meta = {
        "kind": "window-set",
        "version": 1,
        "subjects": wset.subjects,
        "splits": wset.splits,
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


def load_window_set(path) -> WindowSet:
    meta, arrays = read_bundle(path)
    if meta.get("kind") != "window-set" or meta.get("version") != 1:
        raise ConfigurationError(f"{path} is not a version-1 window set")
    return WindowSet(
        data=arrays["data"],
        labels=arrays["labels"].astype(np.int64),
        subjects=list(meta["subjects"]),
        splits=list(meta["splits"]),
        sample_rates=arrays["sample_rates"],
        channel_labels=list(meta["channel_labels"]),
        classes={str(k): int(v) for k, v in meta["classes"].items()},
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
