"""Low-level array operations shared by the adapter and the encoder.

Everything here works in double precision. ``softmax_last`` and
``softmax_backward`` overwrite the array they are given, which the caller
must own, and return it; every other function returns fresh arrays, except
``gelu`` when it is given ``out``. Backward functions return exact
reverse-mode gradients of their forward counterparts; they are verified
against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .errors import DimensionError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYERNORM_EPS = 1e-5


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian error linear unit x * Phi(x); returns (output, Phi(x)).

    ``gelu_grad`` takes the CDF Phi(x) = 0.5 * (1 + erf(x / sqrt 2)) back, so
    a caller that keeps it for backward keeps neither the output nor a
    second erf. ``out`` may be ``x`` itself, when nothing reads x afterwards.
    """
    cdf = x / _SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(x, cdf, out=out), cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx gelu(x) = Phi(x) + x * phi(x), given ``cdf`` = Phi(x) from gelu."""
    out = -0.5 * x
    out *= x
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    out *= x
    out += cdf
    return out


def softmax_last(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max subtraction for stability.

    Works in place: overwrites ``x`` with the probabilities and returns it.
    """
    x -= np.max(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=-1, keepdims=True)
    return x


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Gradient through softmax given its output and upstream gradient.

    Works in place: overwrites ``dprobs`` with the gradient and returns it.
    """
    inner = np.sum(dprobs * probs, axis=-1, keepdims=True)
    dprobs -= inner
    dprobs *= probs
    return dprobs


def _im2col(x: np.ndarray, kernel_len: int, stride: int) -> np.ndarray:
    """View (N, C, T) as (N, C, T_out, kernel_len) sliding patches."""
    view = sliding_window_view(x, kernel_len, axis=2)
    return view[:, :, ::stride, :]


def conv1d_output_len(t_in: int, kernel_len: int, stride: int) -> int:
    """Valid-convolution output length; requires exact stride arithmetic."""
    if t_in < kernel_len:
        raise DimensionError(f"input length {t_in} shorter than kernel {kernel_len}")
    if (t_in - kernel_len) % stride != 0:
        raise DimensionError(
            f"length {t_in} with kernel {kernel_len} and stride {stride} "
            "does not divide evenly; no implicit padding is applied"
        )
    return (t_in - kernel_len) // stride + 1


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                   stride: int) -> np.ndarray:
    """Valid 1-D convolution along time over all input feature maps.

    Shapes: x (N, C_in, T), w (C_out, C_in, K), b (C_out,) ->
    (N, C_out, T_out) with T_out = (T - K) / stride + 1.
    """
    n, c_in, t_in = x.shape
    c_out, c_in_w, kernel_len = w.shape
    if c_in_w != c_in:
        raise DimensionError(f"kernel expects {c_in_w} input maps, got {c_in}")
    t_out = conv1d_output_len(t_in, kernel_len, stride)
    patches = _im2col(x, kernel_len, stride)            # (N, C_in, T_out, K)
    cols = patches.transpose(0, 2, 1, 3).reshape(n * t_out, c_in * kernel_len)
    out = cols @ w.reshape(c_out, c_in * kernel_len).T  # (N*T_out, C_out)
    out += b
    return out.reshape(n, t_out, c_out).transpose(0, 2, 1)


def conv1d_backward(x: np.ndarray, w: np.ndarray, stride: int,
                    dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter gradients of conv1d_forward; returns (dw, db).

    The input gradient is conv1d_input_grad, for callers that need it.
    """
    n, c_in, _ = x.shape
    c_out, _, kernel_len = w.shape
    t_out = dy.shape[2]
    db = dy.sum(axis=(0, 2))
    patches = _im2col(x, kernel_len, stride)
    cols = patches.transpose(0, 2, 1, 3).reshape(n * t_out, c_in * kernel_len)
    dyr = dy.transpose(0, 2, 1).reshape(n * t_out, c_out)
    dw = (dyr.T @ cols).reshape(c_out, c_in, kernel_len)
    return dw, db


def conv1d_input_grad(w: np.ndarray, stride: int, dy: np.ndarray,
                      t_in: int) -> np.ndarray:
    """Gradient of conv1d_forward with respect to its (N, C_in, t_in) input."""
    c_out, c_in, kernel_len = w.shape
    n, _, t_out = dy.shape
    dyr = dy.transpose(0, 2, 1).reshape(n * t_out, c_out)
    # Scatter-add each kernel tap back onto the input; for a fixed tap the
    # strided destination indices are unique, so slice assignment is safe.
    dcols = (dyr @ w.reshape(c_out, c_in * kernel_len)).reshape(n, t_out, c_in, kernel_len)
    dx = np.zeros((n, c_in, t_in))
    for j in range(kernel_len):
        dx[:, :, j : j + stride * t_out : stride] += dcols[:, :, :, j].transpose(0, 2, 1)
    return dx


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Normalize the last axis to zero mean, unit variance, then scale/shift."""
    xc = x - x.mean(axis=-1, keepdims=True)
    # The mean of the squared deviations is x.var's own formula, bit for bit.
    var = np.square(xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = np.multiply(xc, inv_std, out=xc)
    out = xhat * gamma + beta
    return out, (xhat, inv_std)


def layer_norm_backward(cache, gamma: np.ndarray, dy: np.ndarray):
    """Gradients of layer_norm_forward; returns (dx, dgamma, dbeta)."""
    xhat, inv_std = cache
    axes = tuple(range(dy.ndim - 1))
    # One temporary holds each product with xhat in turn.
    prod = dy * xhat
    dgamma = np.sum(prod, axis=axes)
    dbeta = np.sum(dy, axis=axes)
    dxhat = dy * gamma
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = np.multiply(dxhat, xhat, out=prod).mean(axis=-1, keepdims=True)
    dx = dxhat - mean_dxhat
    dx -= np.multiply(xhat, mean_dxhat_xhat, out=prod)
    dx *= inv_std
    return dx, dgamma, dbeta
