"""Shared test scaffolding: small model wrappers, the model's worker count
and cached synthetic data."""

import sys

import numpy as np
import pytest

from eegadapt import model
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

    def forward_batch(self, x):
        logits = adapter_forward_batch(x, self.params, self.config)[0].mean(axis=2)
        return logits, logits

    def loss_and_grads(self, x, y, loss_fn, freeze_bfm=False):
        """The whole batch as one chunk; there is no encoder to freeze."""
        out, cache = adapter_forward_batch(x, self.params, self.config,
                                           keep_cache=True)
        logits = out.mean(axis=2)
        loss, dlogits = loss_fn(logits, y)
        dout = np.repeat(dlogits[:, :, None], out.shape[2], axis=2) / out.shape[2]
        return loss, logits, adapter_backward_batch(cache, self.params,
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

    def forward_batch(self, x):
        logits = self.logit_table[np.asarray(x)[:, 0, 0].astype(int)]
        return logits, logits


@pytest.fixture
def workers(monkeypatch):
    """Set the model's worker count; the next parallel map makes a fresh
    pool of that size, which is shut down after the test. Threads switch
    every microsecond meanwhile, so that chunks interleave as much as they
    can. Without a call the pool is the session's, and it stays up."""
    called = False

    def set_count(count):
        nonlocal called
        monkeypatch.setattr(model, "_WORKERS", count)
        monkeypatch.setattr(model, "_pool", None)
        called = True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield set_count
    finally:
        sys.setswitchinterval(interval)
        if called and model._pool is not None:
            model._pool.shutdown()


@pytest.fixture(scope="session")
def synth4():
    """Small 4-class synthetic dataset shared across training tests."""
    from eegadapt.synthetic import SynthSpec
    from helpers import generate_arrays

    spec = SynthSpec(num_classes=4, channels=8, timesteps=128,
                     counts=(160, 48, 48), subjects=(4, 2, 2), seed=0)
    return generate_arrays(spec)
