"""Classifier assembly: optional distillation adapter in front of the encoder.

With an adapter the input may have any channel count and length the adapter
was configured for; without one the input must already fit the encoder grid
(aligned 23-channel data, or raw data within the channel vocabulary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adapter import (
    AdapterConfig,
    adapter_backward_batch,
    adapter_forward_batch,
    init_adapter_params,
)
from .encoder import (
    BfmConfig,
    encoder_backward_batch,
    encoder_forward_batch,
    forward_chunk,
    init_encoder_params,
    map_chunks,
)
from .errors import ConfigurationError, DimensionError

__all__ = ["EegClassifier", "build_classifier"]


@dataclass
class EegClassifier:
    """Configs plus parameters: ``encoder`` and ``adapter`` map parameter
    names (``head_w``, ``layers.0.w``, ...) to arrays, in checkpoint order."""

    encoder_config: BfmConfig
    encoder: dict[str, np.ndarray]
    adapter_config: Optional[AdapterConfig] = None
    adapter: Optional[dict[str, np.ndarray]] = None

    def __post_init__(self):
        if (self.adapter_config is None) != (self.adapter is None):
            raise ConfigurationError("adapter config and params must come together")
        if self.adapter_config is not None:
            if self.adapter_config.out_channels != self.encoder_config.num_channels:
                raise ConfigurationError(
                    f"adapter emits {self.adapter_config.out_channels} channels, "
                    f"encoder expects {self.encoder_config.num_channels}"
                )
            if self.adapter_config.out_timesteps % self.encoder_config.patch_len != 0:
                raise ConfigurationError(
                    f"adapter emits {self.adapter_config.out_timesteps} steps, "
                    f"not divisible by patch length {self.encoder_config.patch_len}"
                )

    @property
    def num_classes(self) -> int:
        return self.encoder_config.num_classes

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        if self.adapter is not None:
            out.extend((f"adapter.{n}", a) for n, a in self.adapter.items())
        out.extend((f"encoder.{n}", a) for n, a in self.encoder.items())
        return out

    def forward_batch(self, x: np.ndarray, keep_cache: bool = False):
        """(N, C, T) -> (logits (N, K), pooled (N, D), cache). Without a cache,
        chunks of samples run the whole model on the encoder's pool, each into
        its rows of the outputs; with one, the batch is one chunk, inline."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise DimensionError(f"expected a batch (N, C, T), got shape {x.shape}")
        n, cfg, ac = x.shape[0], self.encoder_config, self.adapter_config
        c = n if keep_cache else forward_chunk(cfg)  # backward needs whole-batch caches
        logits, pooled = np.empty((n, cfg.num_classes)), np.empty((n, cfg.embed_dim))
        caches = []

        # A chunk of one sample would take the head's product as a vector
        # times a matrix, which rounds differently from a matrix product; a
        # last sample left over joins the chunk before it.
        def run_chunk(i):
            j = slice(i, n if i + c >= n - 1 else i + c)
            h, adapter_cache = x[j], None
            if ac is not None:
                h, adapter_cache = adapter_forward_batch(h, self.adapter, ac, keep_cache)
            logits[j], pooled[j], enc_cache = encoder_forward_batch(
                h, self.encoder, cfg, keep_cache)
            caches.append((adapter_cache, enc_cache))

        map_chunks(run_chunk, range(0, n - 1, c) if n > 1 else range(n))
        return logits, pooled, caches[0] if keep_cache else None

    def backward_batch(self, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for every parameter, keyed like named_arrays()."""
        adapter_cache, enc_cache = cache
        enc_grads, dh = encoder_backward_batch(
            enc_cache, self.encoder, self.encoder_config, dlogits
        )
        grads = {f"encoder.{n}": g for n, g in enc_grads.items()}
        if self.adapter is not None:
            ad_grads = adapter_backward_batch(
                adapter_cache, self.adapter, self.adapter_config, dh
            )
            grads.update({f"adapter.{n}": g for n, g in ad_grads.items()})
        return grads

    def embed_batch(self, x: np.ndarray) -> np.ndarray:
        """Pooled representations, the feature extractor for zero-shot use."""
        _, pooled, _ = self.forward_batch(x)
        return pooled


def build_classifier(encoder_config: BfmConfig,
                     adapter_config: Optional[AdapterConfig],
                     seed: int) -> EegClassifier:
    """Seeded construction; adapter and encoder draw from one generator."""
    rng = np.random.default_rng(seed)
    adapter = None
    if adapter_config is not None:
        adapter = init_adapter_params(adapter_config, rng)
    encoder = init_encoder_params(encoder_config, rng)
    return EegClassifier(
        encoder_config=encoder_config,
        encoder=encoder,
        adapter_config=adapter_config,
        adapter=adapter,
    )
