"""Classifier assembly: optional distillation adapter in front of the encoder.

With an adapter the input may have any channel count and length the adapter
was configured for; without one the input must already fit the encoder grid
(aligned 23-channel data, or raw data within the channel vocabulary).

This module alone splits a batch into chunks of samples and decides where
they run: on a thread pool, with numpy's BLAS held at one thread. Other
modules put their own independent tasks on the same pool through
``map_chunks``: preprocessing runs one task per group of recordings.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
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
    head_grads,
    init_encoder_params,
)
from .errors import ConfigurationError, DimensionError

__all__ = ["EegClassifier", "build_classifier", "map_chunks", "own_threads"]


# The model runs on chunks of c >= 2 samples, in training too, so that
# no intermediate is batch-sized. A sample's block working set is about
# 21 (S, D) float64 arrays, the feed-forward's three (S, 4D) ones included. At
# 161 tokens and D = 32, chunks of 2 to 8 samples ran fastest (one sample per
# task contends for the GIL, 16 and more fall out of cache); 4 MiB gives 4.
_FORWARD_CHUNK_BYTES = 4 << 20


def _forward_chunk(cfg: BfmConfig) -> int:
    """Samples per chunk of the model's forward and training step, sized for
    the most tokens the config takes: num_channels x max_patches."""
    s = cfg.num_channels * cfg.max_patches
    return max(2, _FORWARD_CHUNK_BYTES // (21 * s * cfg.embed_dim * 8))


# glibc's M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1) of malloc.h, at 2x
# and 4x the chunk budget (see own_threads).
_MALLOPT = ((-3, 2 * _FORWARD_CHUNK_BYTES), (-1, 4 * _FORWARD_CHUNK_BYTES))


@functools.cache
def own_threads() -> bool:
    """Hold numpy's bundled OpenBLAS at one thread, and fix glibc's allocator
    thresholds, once per process.

    Parallelism comes from the pool below; BLAS threads on top of it would
    oversubscribe the CPUs, and a weight-gradient product rounds differently
    at another BLAS thread count. Returns whether the setter was found: a
    numpy built against another BLAS is left as it is.

    glibc maps a block past its mmap threshold on its own and trims a heap
    whose free top passes its trim threshold. Both start low and rise only
    when a large mapped block is freed, so without one the workers' arenas
    would hand a chunk's temporaries back after each chunk and fault them in
    again. At 2x and 4x ``_FORWARD_CHUNK_BYTES`` every per-chunk temporary
    (the kept attention probabilities too) is reused. Both are set: setting
    one stops glibc adjusting the other. A C library without ``mallopt`` is
    left as it is."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        for param, value in _MALLOPT:
            mallopt(param, value)
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        setter = getattr(ctypes.CDLL(str(lib)),
                         "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return True
    return False


# Chunks run on one worker thread per CPU the process may use; numpy and scipy
# release the GIL in their loops. A task already on a worker runs its own
# chunks inline: waiting on the pool from inside it could deadlock.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_on_worker = threading.local()


def _forget_pool() -> None:
    """In a forked child: the pool object came along but its threads did not."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_chunks(fn, chunks):
    """Yields ``fn(chunk)`` for each chunk of an iterable in order, each as
    soon as it and the chunks before it are done; chunks write disjoint
    memory. At most ``_WORKERS`` + 1 are taken ahead of the results, so the
    next is made while the workers run. The first chunk in order that fails
    raises its error, once none is running; none is taken after a failure
    is known, and those taken that have not started never do."""
    global _pool
    own_threads()
    chunks = iter(chunks)
    head = list(islice(chunks, 2))
    chunks = chain(head, chunks)
    if _WORKERS < 2 or len(head) < 2 or getattr(_on_worker, "active", False):
        yield from map(fn, chunks)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, initializer=setattr,
                                       initargs=(_on_worker, "active", True))
    futures = deque()
    try:
        for chunk in chunks:
            futures.append(_pool.submit(fn, chunk))
            if len(futures) > _WORKERS:
                yield futures.popleft().result()
            if any(f.done() and f.exception() is not None for f in futures):
                break
        while futures:
            yield futures.popleft().result()
    finally:
        # An error cancels the chunks not yet started and leaves none running
        # behind the caller's back: cancel() fails only on a started one.
        wait([future for future in futures if not future.cancel()])


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

    def _chunks(self, x):
        """``x`` as float64 (a source of rows as it is) and its slices of
        ``_forward_chunk`` samples; a last sample joins the chunk before it, as
        a one-sample chunk's head product (vector times matrix) would round
        differently."""
        if not hasattr(x, "blocks"):
            x = np.asarray(x, dtype=np.float64)
        if len(x.shape) != 3:
            raise DimensionError(f"expected a batch (N, C, T), got shape {x.shape}")
        n, c = x.shape[0], _forward_chunk(self.encoder_config)
        starts = range(0, n - 1, c) if n > 1 else range(n)
        return x, [slice(i, n if i + c >= n - 1 else i + c) for i in starts]

    def forward_batch(self, x):
        """(N, C, T) -> (logits (N, K), pooled (N, D)) on the pool, each chunk
        into its rows. ``x`` is an array or a source of rows: it has a shape,
        and indexing it by a slice gives those rows as a float64 array."""
        x, slices = self._chunks(x)
        n, cfg = x.shape[0], self.encoder_config
        logits, pooled = np.empty((n, cfg.num_classes)), np.empty((n, cfg.embed_dim))

        def run_chunk(chunk):
            h, j = chunk
            if self.adapter is not None:
                h, _ = adapter_forward_batch(h, self.adapter, self.adapter_config)
            logits[j], pooled[j], _ = encoder_forward_batch(h, self.encoder, cfg)

        # Each chunk's rows are read here, on the calling thread.
        for _ in map_chunks(run_chunk, ((x[j], j) for j in slices)):
            pass
        return logits, pooled

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray, loss_fn,
                       freeze_bfm: bool = False):
        """(mean loss, logits (N, K), gradients keyed like named_arrays()).
        On the pool, each chunk of m samples runs forward, ``loss_fn(logits,
        labels) -> (mean loss, dlogits)`` on its rows and backward from dlogits
        scaled by m/N; losses and gradients are summed in chunk order, each
        chunk's as soon as it and the chunks before it are done. With
        ``freeze_bfm`` the encoder body's gradients are neither computed nor
        returned: only the adapter's and the head's. Without an adapter too,
        only the head trains: the forward keeps no cache and no block runs
        backward."""
        x, slices = self._chunks(x)
        n, cfg, ac = x.shape[0], self.encoder_config, self.adapter_config
        head_only = freeze_bfm and ac is None
        logits = np.empty((n, cfg.num_classes))

        def run_chunk(chunk):
            (h, j), adapter_cache = chunk, None
            m = j.stop - j.start
            if ac is not None:
                h, adapter_cache = adapter_forward_batch(h, self.adapter, ac,
                                                         keep_cache=True)
            logits[j], pooled, enc_cache = encoder_forward_batch(
                h, self.encoder, cfg, keep_cache=not head_only)
            loss, dlogits = loss_fn(logits[j], y[j])
            if head_only:
                enc_grads = head_grads(pooled, dlogits * (m / n))
            else:
                enc_grads, dh = encoder_backward_batch(enc_cache, self.encoder, cfg,
                                                       dlogits * (m / n),
                                                       body_grads=not freeze_bfm)
            del enc_cache
            grads = {f"encoder.{k}": g for k, g in enc_grads.items()}
            if ac is not None:
                ad_grads = adapter_backward_batch(adapter_cache, self.adapter, ac, dh)
                grads.update((f"adapter.{k}", g) for k, g in ad_grads.items())
            return loss * m, grads

        loss_sum, grads = 0.0, None
        for loss, chunk_grads in map_chunks(run_chunk, ((x[j], j) for j in slices)):
            loss_sum += loss
            if grads is None:
                grads = chunk_grads
                continue
            for name, g in chunk_grads.items():
                grads[name] += g
        return loss_sum / n, logits, grads

    def embed_batch(self, x: np.ndarray) -> np.ndarray:
        """Pooled representations, the feature extractor for zero-shot use."""
        return self.forward_batch(x)[1]


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
