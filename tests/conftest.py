"""Shared test scaffolding: small model wrappers and cached synthetic data."""

import numpy as np
import pytest

from eegadapt.adapter import (
    adapter_backward_batch,
    adapter_forward_batch,
    default_adapter_config,
    init_adapter_params,
)


class AdapterOnlyClassifier:
    """Distillation stack alone, mean-pooled over time into class logits.

    Gives the gradient checker and the training engine an adapter-only
    model: out_channels doubles as the class count.
    """

    def __init__(self, in_channels, in_timesteps, num_classes,
                 out_timesteps, seed=0):
        self.config = default_adapter_config(
            in_channels, in_timesteps,
            out_channels=num_classes, out_timesteps=out_timesteps,
        )
        self.params = init_adapter_params(self.config, np.random.default_rng(seed))
        self.num_classes = num_classes

    def named_arrays(self):
        return list(self.params.items())

    def forward_batch(self, x, keep_cache=False):
        out, cache = adapter_forward_batch(x, self.params, self.config,
                                           keep_cache=keep_cache)
        logits = out.mean(axis=2)
        return logits, logits, (cache, out.shape)

    def backward_batch(self, cache, dlogits):
        adapter_cache, out_shape = cache
        dout = np.repeat(dlogits[:, :, None], out_shape[2], axis=2) / out_shape[2]
        return adapter_backward_batch(adapter_cache, self.params,
                                      self.config, dout)


class StubModel:
    """Parameter-free model emitting preassigned logits, keyed by sample id.

    Sample id rides in x[:, 0, 0] so evaluation paths can be tested without
    any learning.
    """

    def __init__(self, logit_table):
        self.logit_table = np.asarray(logit_table, dtype=np.float64)
        self.num_classes = self.logit_table.shape[1]

    def named_arrays(self):
        return []

    def forward_batch(self, x, keep_cache=False):
        ids = np.asarray(x)[:, 0, 0].astype(int)
        logits = self.logit_table[ids]
        return logits, logits, None


@pytest.fixture(scope="session")
def synth4():
    """Small 4-class synthetic dataset shared across training tests."""
    from eegadapt.synthetic import SynthSpec, generate_arrays

    spec = SynthSpec(num_classes=4, channels=8, timesteps=128,
                     counts=(160, 48, 48), subjects=(4, 2, 2), seed=0)
    return generate_arrays(spec)
