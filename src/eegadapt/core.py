"""Windowing of one recording's (E, T) microvolt matrix."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["window_count", "extract_windows"]


def window_count(num_samples: int, window_len: int) -> int:
    """How many windows ``extract_windows`` cuts from ``num_samples``."""
    if window_len < 1:
        raise DomainError(f"window_len must be >= 1, got {window_len}")
    return num_samples // window_len


def extract_windows(data: np.ndarray, window_len: int) -> np.ndarray:
    """Cut an (E, T) matrix into (T // window_len, E, window_len) windows.

    Window k covers columns [k * window_len, (k + 1) * window_len); the
    trailing remainder is discarded so every window is identically
    distributed. The windows are a copy, so ``data`` can be freed once cut;
    keeping every recording alive behind views raises peak RSS.
    """
    e, t = data.shape
    count = window_count(t, window_len)
    windows = data[:, : count * window_len].reshape(e, count, window_len)
    return windows.transpose(1, 0, 2).copy()
