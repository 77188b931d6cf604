"""Notch and bandpass filtering applied to every recording before alignment.

A filter is its second-order-section matrix: shape (n_sections, 6), rows
(b0, b1, b2, 1, a1, a2). Designs are a biquad notch and a Butterworth
bandpass, both applied forward-backward for zero phase. All filtering runs
in double precision regardless of storage precision.

Zero-phase filtering pads each row by odd reflection of 6 x n_sections
samples at both ends, runs the cascade forward and then backward, each pass
started from the cascade's steady state scaled by its first input sample,
and trims the padding. The result is bitwise equal to
``scipy.signal.sosfiltfilt(sos, data, axis=1, padlen=6 * n_sections)``. The
steady state (``sosfilt_zi``) depends only on the coefficients, so it is
solved once per distinct design and reused for every recording.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=32)
def _steady_state(dtype: str, shape: tuple[int, ...], coefficients: bytes) -> np.ndarray:
    """``sosfilt_zi`` of one design, keyed on its coefficient bytes.

    Every caller with the same design gets the same array, so it is read-only.
    """
    zi = _sig.sosfilt_zi(np.frombuffer(coefficients, dtype=dtype).reshape(shape))
    zi.flags.writeable = False
    return zi


def apply_chain_to_rows(sos: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Zero-phase filtering of every row of an E x T matrix.

    Runs the cascade forward, reverses, runs it again, and reverses back,
    with odd-reflection edge padding of 3 x (2 x sections) samples; rows are
    independent channels and keep their length. Bitwise equal to
    ``scipy.signal.sosfiltfilt`` with the same ``padlen``.
    """
    sos = np.asarray(sos)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionError(f"expected a 2-D channel matrix, got shape {data.shape}")
    padlen = 3 * (2 * sos.shape[0])
    if data.shape[1] <= padlen:
        raise DomainError(
            f"signals of length {data.shape[1]} are too short for edge padding {padlen}"
        )
    zi = _steady_state(sos.dtype.str, sos.shape, sos.tobytes())[:, None, :]
    ext = np.concatenate((2 * data[:, :1] - data[:, padlen:0:-1],
                          data,
                          2 * data[:, -1:] - data[:, -2:-(padlen + 2):-1]), axis=1)
    y = _sig.sosfilt(sos, ext, axis=1, zi=zi * ext[:, :1])[0]
    y = _sig.sosfilt(sos, y[:, ::-1], axis=1, zi=zi * y[:, -1:])[0]
    return y[:, ::-1][:, padlen:-padlen]
