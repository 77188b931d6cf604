"""Core signal types, unit conversion, and windowing.

All operations are pure functions on immutable inputs and are safe to call
from parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "Recording",
    "QuantizedRecording",
    "quantized_to_microvolts",
    "extract_windows",
]


def _clean_labels(labels) -> list[str]:
    return [str(lab).strip() for lab in labels]


@dataclass(frozen=True)
class Recording:
    """One subject/trial's multichannel EEG in microvolts.

    ``data`` is an E x T float matrix; row i carries the electrode named
    ``channel_labels[i]``.
    """

    channel_labels: list[str]
    sample_rate_hz: float
    data: np.ndarray
    subject_id: str = ""
    label: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "channel_labels", _clean_labels(self.channel_labels))
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise DimensionError(f"recording data must be 2-D, got shape {data.shape}")
        if data.shape[0] != len(self.channel_labels):
            raise DimensionError(
                f"{data.shape[0]} data rows but {len(self.channel_labels)} channel labels"
            )
        if data.shape[1] < 1:
            raise DimensionError("recording must contain at least one sample")
        if not np.all(np.isfinite(data)):
            raise DomainError("recording contains non-finite samples")
        if not self.sample_rate_hz > 0:
            raise DomainError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class QuantizedRecording:
    """Raw ADC counts plus the per-channel resolution (microvolts per count)."""

    channel_labels: list[str]
    sample_rate_hz: float
    data: np.ndarray
    resolution: np.ndarray
    subject_id: str = ""
    label: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "channel_labels", _clean_labels(self.channel_labels))
        data = np.asarray(self.data)
        if not np.issubdtype(data.dtype, np.integer):
            data = data.astype(np.int64)
        else:
            data = data.astype(np.int64, copy=False)
        if data.ndim != 2:
            raise DimensionError(f"quantized data must be 2-D, got shape {data.shape}")
        resolution = np.asarray(self.resolution, dtype=np.float64).reshape(-1)
        if resolution.shape[0] != data.shape[0]:
            raise DimensionError(
                f"resolution has {resolution.shape[0]} entries for {data.shape[0]} channels"
            )
        if not np.all(resolution > 0):
            raise DomainError("resolution entries must be positive")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "resolution", resolution)


def quantized_to_microvolts(q: QuantizedRecording) -> Recording:
    """Scale raw counts into microvolts, channel by channel.

    Output sample (c, t) is ``resolution[c] * q.data[c, t]``; labels and
    metadata are carried over unchanged.
    """
    volts = q.resolution[:, None] * q.data.astype(np.float64)
    return Recording(
        channel_labels=list(q.channel_labels),
        sample_rate_hz=q.sample_rate_hz,
        data=volts,
        subject_id=q.subject_id,
        label=q.label,
    )


def extract_windows(data: np.ndarray, window_len: int) -> np.ndarray:
    """Cut an (E, T) matrix into (T // window_len, E, window_len) windows.

    Window k covers columns [k * window_len, (k + 1) * window_len); the
    trailing remainder is discarded so every window is identically
    distributed. The windows are a copy, so ``data`` can be freed once cut;
    keeping every recording alive behind views raises peak RSS.
    """
    if window_len < 1:
        raise DomainError(f"window_len must be >= 1, got {window_len}")
    e, t = data.shape
    count = t // window_len
    windows = data[:, : count * window_len].reshape(e, count, window_len)
    return windows.transpose(1, 0, 2).copy()
