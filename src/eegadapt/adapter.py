"""Learned channel distillation: temporal convolutions mapping any E x T
input onto the encoder's fixed channel/timestep grid.

The stack is a plain cascade of valid 1-D convolutions; the constructor
verifies that the stride/kernel arithmetic lands exactly on the configured
output length rather than padding silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError, NumericError
from .nnops import (
    conv1d_backward,
    conv1d_forward,
    conv1d_input_grad,
    conv1d_output_len,
    gelu,
    gelu_grad,
)

__all__ = [
    "ConvLayerSpec",
    "AdapterConfig",
    "default_adapter_config",
    "adapter_param_shapes",
    "init_adapter_params",
    "adapter_forward_batch",
    "adapter_backward_batch",
]

_ACTIVATIONS = ("gelu", "none")


@dataclass(frozen=True)
class ConvLayerSpec:
    out_maps: int
    kernel_len: int
    stride: int = 1
    activation: str = "gelu"

    def __post_init__(self):
        if self.out_maps < 1 or self.kernel_len < 1 or self.stride < 1:
            raise DomainError(f"invalid conv layer spec {self}")
        if self.activation not in _ACTIVATIONS:
            raise DomainError(f"activation must be one of {_ACTIVATIONS}")


@dataclass(frozen=True)
class AdapterConfig:
    """Shape contract of the distillation network.

    The layer cascade must transform ``in_timesteps`` into exactly
    ``out_timesteps`` and the final layer must emit ``out_channels`` maps.
    """

    in_channels: int
    in_timesteps: int
    out_channels: int = 23
    out_timesteps: int = 0
    layers: tuple[ConvLayerSpec, ...] = ()

    def __post_init__(self):
        if self.in_channels < 1 or self.in_timesteps < 1:
            raise DomainError("input shape must be positive")
        if not self.layers:
            raise ConfigurationError("adapter needs at least one conv layer")
        t = self.in_timesteps
        for i, layer in enumerate(self.layers):
            try:
                t = conv1d_output_len(t, layer.kernel_len, layer.stride)
            except DimensionError as exc:
                raise ConfigurationError(f"layer {i}: {exc}") from exc
        if t != self.out_timesteps:
            raise ConfigurationError(
                f"layer cascade yields {t} timesteps, configured out_timesteps "
                f"is {self.out_timesteps}"
            )
        if self.layers[-1].out_maps != self.out_channels:
            raise ConfigurationError(
                f"final layer emits {self.layers[-1].out_maps} maps, configured "
                f"out_channels is {self.out_channels}"
            )


def default_adapter_config(in_channels: int, in_timesteps: int,
                           out_channels: int = 23,
                           out_timesteps: int | None = None,
                           hidden_maps: int = 64) -> AdapterConfig:
    """Two-layer default: a wide temporal layer, then a channel-shaping layer.

    With ``out_timesteps`` unset the first layer uses kernel 15 / stride 1
    and the output is 16 samples shorter than the input. With it set, the
    first layer's kernel and stride are solved so the cascade lands exactly
    on the requested length; the candidate with kernel closest to 15 wins.
    """
    if out_timesteps is None:
        out_timesteps = in_timesteps - 16
        if out_timesteps < 1:
            raise ConfigurationError(
                f"input of {in_timesteps} steps is too short for the default "
                "kernel sizes; pass an explicit layer stack"
            )
        first = ConvLayerSpec(hidden_maps, 15, 1, "gelu")
    else:
        # Second layer is kernel 3 / stride 1, so the first layer must
        # produce out_timesteps + 2 samples: kernel = T - stride*(out + 1).
        best = None
        for stride in range(1, 65):
            kernel = in_timesteps - stride * (out_timesteps + 1)
            if 2 <= kernel <= 64:
                cand = (abs(kernel - 15), stride, kernel)
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise ConfigurationError(
                f"no two-layer stack maps {in_timesteps} steps onto "
                f"{out_timesteps}; pass an explicit layer stack"
            )
        first = ConvLayerSpec(hidden_maps, best[2], best[1], "gelu")
    return AdapterConfig(
        in_channels=in_channels,
        in_timesteps=in_timesteps,
        out_channels=out_channels,
        out_timesteps=out_timesteps,
        layers=(first, ConvLayerSpec(out_channels, 3, 1, "none")),
    )


def adapter_param_shapes(cfg: AdapterConfig):
    """(name, shape) of every adapter parameter, in checkpoint order, without
    allocating: ``layers.<i>.w`` (out_maps, in_maps, kernel_len) and
    ``layers.<i>.b`` (out_maps,)."""
    in_maps = cfg.in_channels
    for i, layer in enumerate(cfg.layers):
        yield f"layers.{i}.w", (layer.out_maps, in_maps, layer.kernel_len)
        yield f"layers.{i}.b", (layer.out_maps,)
        in_maps = layer.out_maps


def init_adapter_params(cfg: AdapterConfig,
                        rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform +-sqrt(1/fan_in) weights and zero biases, keyed as in
    ``adapter_param_shapes``."""
    params: dict[str, np.ndarray] = {}
    for name, shape in adapter_param_shapes(cfg):
        if name.endswith(".w"):
            bound = np.sqrt(1.0 / (shape[1] * shape[2]))
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
    return params


def adapter_forward_batch(x: np.ndarray, params: dict[str, np.ndarray],
                          cfg: AdapterConfig, keep_cache: bool = False):
    """Run the cascade on a batch (N, E, T) -> (N, out_channels, out_timesteps).

    Returns (output, cache). The cache holds ``(x, None)`` and then, per
    layer, the pre-activation and its GELU CDF (None without an activation);
    entry i rebuilds the input of layer i.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.in_channels or x.shape[2] != cfg.in_timesteps:
        raise DimensionError(
            f"expected batch of shape (N, {cfg.in_channels}, {cfg.in_timesteps}), "
            f"got {x.shape}"
        )
    h = x
    cache = [(x, None)] if keep_cache else None
    for i, spec in enumerate(cfg.layers):
        z = conv1d_forward(h, params[f"layers.{i}.w"], params[f"layers.{i}.b"],
                           spec.stride)
        h, cdf = gelu(z) if spec.activation == "gelu" else (z, None)
        if keep_cache:
            cache.append((z, cdf))
    if not np.all(np.isfinite(h)):
        raise NumericError("adapter forward produced non-finite values")
    return h, cache


def adapter_backward_batch(cache, params: dict[str, np.ndarray],
                           cfg: AdapterConfig, dout: np.ndarray) -> dict[str, np.ndarray]:
    """Reverse-mode parameter gradients for a batch, keyed like ``params``.

    ``dout`` must match the forward output's shape. The gradient with
    respect to the adapter's input is not computed: nothing upstream of the
    adapter learns.
    """
    grads: dict[str, np.ndarray] = {}
    dh = np.asarray(dout, dtype=np.float64)
    if dh.shape != cache[-1][0].shape:
        raise DimensionError(
            f"upstream shape {dh.shape} does not match the output "
            f"{cache[-1][0].shape}"
        )
    for i in reversed(range(len(cfg.layers))):
        z, cdf = cache[i + 1]
        dz = dh if cdf is None else gelu_grad(z, cdf) * dh
        z_in, cdf_in = cache[i]
        x_in = z_in if cdf_in is None else z_in * cdf_in
        w, stride = params[f"layers.{i}.w"], cfg.layers[i].stride
        grads[f"layers.{i}.w"], grads[f"layers.{i}.b"] = conv1d_backward(
            x_in, w, stride, dz)
        if i > 0:
            dh = conv1d_input_grad(w, stride, dz, x_in.shape[2])
    return grads
