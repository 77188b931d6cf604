"""Notch and bandpass filtering applied to every recording before alignment.

A filter is its second-order-section matrix: shape (n_sections, 6), rows
(b0, b1, b2, 1, a1, a2). Designs are a biquad notch and a Butterworth
bandpass, both applied forward-backward for zero phase. All filtering runs
in double precision regardless of storage precision.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as _sig

from .errors import DimensionError, DomainError

__all__ = [
    "design_notch",
    "design_bandpass",
    "apply_chain_to_rows",
]


def _checked(sos: np.ndarray) -> np.ndarray:
    """Normalise a0 to 1 and refuse non-finite or unstable sections.

    Every section's poles must lie strictly inside the unit circle.
    """
    sos = np.asarray(sos, dtype=np.float64)
    if not np.all(np.isfinite(sos)):
        raise DomainError("sos coefficients must be finite")
    sos = sos / sos[:, 3:4]
    for i, section in enumerate(sos):
        poles = np.roots(section[3:6])
        if poles.size and np.max(np.abs(poles)) >= 1.0:
            raise DomainError(f"section {i} is unstable (pole modulus >= 1)")
    return sos


def design_notch(center_hz: float, sample_rate_hz: float,
                 quality: float) -> np.ndarray:
    """Biquad band-stop with a null at ``center_hz`` and unit gain elsewhere."""
    if not 0.0 < center_hz < sample_rate_hz / 2.0:
        raise DomainError(
            f"notch center {center_hz} Hz must lie in (0, {sample_rate_hz / 2.0}) "
            f"for sample rate {sample_rate_hz} Hz"
        )
    if quality <= 0:
        raise DomainError(f"quality factor must be positive, got {quality}")
    b, a = _sig.iirnotch(center_hz, quality, fs=sample_rate_hz)
    return _checked(np.hstack([b, a])[None, :])


def design_bandpass(low_hz: float, high_hz: float, order: int,
                    sample_rate_hz: float) -> np.ndarray:
    """Butterworth bandpass, maximally flat between the two cutoffs."""
    nyquist = sample_rate_hz / 2.0
    if not 0.0 < low_hz < high_hz < nyquist:
        raise DomainError(
            f"bandpass cutoffs must satisfy 0 < low < high < {nyquist}, "
            f"got low={low_hz}, high={high_hz}"
        )
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    return _checked(_sig.butter(order, [low_hz, high_hz], btype="bandpass",
                                output="sos", fs=sample_rate_hz))


def apply_chain_to_rows(sos: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Zero-phase filtering of every row of an E x T matrix.

    Runs the cascade forward, reverses, runs it again, and reverses back,
    with odd-reflection edge padding of 3 x (2 x sections) samples; rows are
    independent channels and keep their length.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionError(f"expected a 2-D channel matrix, got shape {data.shape}")
    padlen = 3 * (2 * sos.shape[0])
    if data.shape[1] <= padlen:
        raise DomainError(
            f"signals of length {data.shape[1]} are too short for edge padding {padlen}"
        )
    return _sig.sosfiltfilt(sos, data, axis=1, padlen=padlen)
