"""Compact trainable stand-in for the pretrained base encoder.

Temporal patch embedding plus channel and temporal position tables feed a
pre-norm multi-head self-attention stack; the pooled representation is the
mean over final-layer tokens and a linear head maps it to class logits.
Forward and backward are hand-written in double precision so gradients can
be verified against finite differences.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError
from .nnops import (
    gelu,
    gelu_grad,
    layer_norm_backward,
    layer_norm_forward,
    softmax_backward,
    softmax_last,
)

__all__ = [
    "BfmConfig",
    "encoder_param_shapes",
    "init_encoder_params",
    "encoder_forward_batch",
    "encoder_backward_batch",
]


@dataclass(frozen=True)
class BfmConfig:
    """Desk-scale encoder configuration.

    ``channel_vocab`` sizes the channel-embedding table; raw high-density
    inputs use vocab 128 with only the first C rows active. ``max_patches``
    sizes the temporal-position table.
    """

    num_channels: int
    num_classes: int
    patch_len: int = 16
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 4
    channel_vocab: int = 23
    max_patches: int = 64

    def __post_init__(self):
        for name in ("num_channels", "num_classes", "patch_len", "embed_dim",
                     "num_layers", "num_heads", "max_patches"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.embed_dim % self.num_heads != 0:
            raise ConfigurationError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.channel_vocab < self.num_channels:
            raise ConfigurationError(
                f"channel_vocab {self.channel_vocab} smaller than num_channels "
                f"{self.num_channels}"
            )

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def ff_dim(self) -> int:
        return 4 * self.embed_dim


def encoder_param_shapes(cfg: BfmConfig):
    """(name, shape) of every encoder parameter in checkpoint order: the patch
    embedding, the channel and temporal tables, ``blocks.<i>.<name>`` for each
    layer, the final norm and the head. Nothing is allocated."""
    d, f, k = cfg.embed_dim, cfg.ff_dim, cfg.num_classes
    yield from (("patch_w", (d, cfg.patch_len)), ("patch_b", (d,)),
                ("channel_embed", (cfg.channel_vocab, d)),
                ("temporal_embed", (cfg.max_patches, d)))
    block = {"ln1_g": (d,), "ln1_b": (d,), "wq": (d, d), "bq": (d,),
             "wk": (d, d), "bk": (d,), "wv": (d, d), "bv": (d,), "wo": (d, d),
             "bo": (d,), "ln2_g": (d,), "ln2_b": (d,), "w1": (d, f), "b1": (f,),
             "w2": (f, d), "b2": (d,)}
    for i in range(cfg.num_layers):
        yield from ((f"blocks.{i}.{name}", shape) for name, shape in block.items())
    yield from (("final_g", (d,)), ("final_b", (d,)), ("head_w", (d, k)),
                ("head_b", (k,)))


def init_encoder_params(cfg: BfmConfig,
                        rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform fan-in init for projections, 0.02 normals for embedding tables,
    ones for layer-norm gains, zeros for biases and the head (so the initial
    mean loss is exactly ln(num_classes)); keyed as in ``encoder_param_shapes``.
    """
    shapes = dict(encoder_param_shapes(cfg))
    params: dict[str, np.ndarray] = {}
    # The blocks draw from rng first, then patch_w and the embedding tables.
    for name in sorted(shapes, key=lambda n: not n.startswith("blocks.")):
        shape, short = shapes[name], name.rsplit(".", 1)[-1]
        if short in ("patch_w", "wq", "wk", "wv", "wo", "w1", "w2"):
            # Projections are stored (in, out); patch_w is (out, in).
            fan_in = shape[1] if short == "patch_w" else shape[0]
            bound = np.sqrt(1.0 / fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
        elif short.endswith("_embed"):
            params[name] = rng.normal(0.0, 0.02, size=shape)
        else:
            params[name] = np.ones(shape) if short.endswith("_g") else np.zeros(shape)
    return {name: params[name] for name in shapes}


def _block(params: dict[str, np.ndarray], i: int) -> dict[str, np.ndarray]:
    """The arrays of block ``i`` under their short names (``wq``, ``b1``, ...)."""
    prefix = f"blocks.{i}."
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def _validate_input(x: np.ndarray, cfg: BfmConfig) -> tuple[int, int]:
    n, c, t = x.shape
    if c > cfg.channel_vocab:
        raise DimensionError(
            f"{c} channels exceed the channel vocabulary {cfg.channel_vocab}"
        )
    if t % cfg.patch_len != 0:
        raise DimensionError(
            f"{t} timesteps not divisible by patch length {cfg.patch_len}"
        )
    p = t // cfg.patch_len
    if p > cfg.max_patches:
        raise DimensionError(
            f"{p} patches exceed the temporal-position table size {cfg.max_patches}"
        )
    return c, p


def _patchify_batch(x: np.ndarray, params: dict[str, np.ndarray], cfg: BfmConfig):
    """(N, C, T) -> tokens (N, C*P, D) with patches cached for backward.

    Token c*P + p is the patch embedding of x[:, c, p*patch_len:(p+1)*patch_len]
    plus the channel and temporal position embeddings.
    """
    n = x.shape[0]
    c, p = _validate_input(x, cfg)
    patches = x.reshape(n, c, p, cfg.patch_len)
    emb = patches @ params["patch_w"].T + params["patch_b"]
    emb = emb + params["channel_embed"][None, :c, None, :]
    emb = emb + params["temporal_embed"][None, None, :p, :]
    return emb.reshape(n, c * p, cfg.embed_dim), patches


# Attention runs over chunks of c samples so that only one chunk's (c, H, S, S)
# float64 scores are live at a time; backward recomputes them from q and k
# instead of keeping them. Backward holds two such blocks (probabilities and
# their gradient), so 1 MiB each keeps both within a 2 MiB per-core L2.
_SCORE_CHUNK_BYTES = 1 << 20


def _chunk_samples(h: int, s: int) -> int:
    return max(1, _SCORE_CHUNK_BYTES // (h * s * s * 8))


# Without a cache the whole block stack runs on chunks of c >= 2 samples, so
# that no intermediate is batch-sized. A sample's block working set is about
# 21 (S, D) float64 arrays, the feed-forward's three (S, 4D) ones included. At
# 161 tokens and D = 32, chunks of 2 to 8 samples ran fastest (one sample per
# task contends for the GIL, 16 and more fall out of cache); 4 MiB gives 4.
_FORWARD_CHUNK_BYTES = 4 << 20


def _forward_chunk(s: int, d: int) -> int:
    return max(2, _FORWARD_CHUNK_BYTES // (21 * s * d * 8))


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


def _map(fn, starts: range) -> None:
    """Call ``fn(i)`` for every chunk start ``i``; chunks write disjoint memory."""
    global _pool
    if _WORKERS < 2 or len(starts) < 2 or getattr(_on_worker, "active", False):
        for i in starts:
            fn(i)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, initializer=setattr,
                                       initargs=(_on_worker, "active", True))
    futures = [_pool.submit(fn, i) for i in starts]
    wait(futures)
    for future in futures:
        future.result()


def _attention_probs(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    attn = q @ k.transpose(0, 1, 3, 2)
    attn *= scale
    return softmax_last(attn)


def _block_forward(x, bp: dict[str, np.ndarray], cfg: BfmConfig):
    n, s, d = x.shape
    h, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)

    h1, ln1_cache = layer_norm_forward(x, bp["ln1_g"], bp["ln1_b"])
    q = (h1 @ bp["wq"] + bp["bq"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    k = (h1 @ bp["wk"] + bp["bk"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    v = (h1 @ bp["wv"] + bp["bv"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    # Each chunk's context is written head by head into token-major memory.
    ctx = np.empty((n, s, h, dh))
    ctx_heads = ctx.transpose(0, 2, 1, 3)
    c = _chunk_samples(h, s)

    def attend(i):
        j = slice(i, i + c)
        np.matmul(_attention_probs(q[j], k[j], scale), v[j], out=ctx_heads[j])

    _map(attend, range(0, n, c))
    ctx = ctx.reshape(n, s, d)
    attn_out = ctx @ bp["wo"] + bp["bo"]
    x2 = x + attn_out

    h2, ln2_cache = layer_norm_forward(x2, bp["ln2_g"], bp["ln2_b"])
    a1 = h2 @ bp["w1"] + bp["b1"]
    g1, cdf = gelu(a1)
    x3 = x2 + g1 @ bp["w2"] + bp["b2"]

    # The GELU output is rebuilt as a1 * cdf in backward rather than kept.
    cache = (x, h1, ln1_cache, q, k, v, ctx, x2, h2, ln2_cache, a1, cdf)
    return x3, cache


def _block_backward(dout, bp: dict[str, np.ndarray], cfg: BfmConfig, cache):
    x, h1, ln1_cache, q, k, v, ctx, x2, h2, ln2_cache, a1, cdf = cache
    n, s, d = x.shape
    h, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    g: dict[str, np.ndarray] = {}

    # Feed-forward branch.
    df = dout
    g1 = a1 * cdf
    g["w2"] = g1.reshape(-1, cfg.ff_dim).T @ df.reshape(-1, d)
    g["b2"] = df.sum(axis=(0, 1))
    da1 = df @ bp["w2"].T
    da1 *= gelu_grad(a1, cdf)
    g["w1"] = h2.reshape(-1, d).T @ da1.reshape(-1, cfg.ff_dim)
    g["b1"] = da1.sum(axis=(0, 1))
    dh2 = da1 @ bp["w1"].T
    dx2_ln, g["ln2_g"], g["ln2_b"] = layer_norm_backward(ln2_cache, bp["ln2_g"], dh2)
    dx2 = dout + dx2_ln

    # Attention branch.
    dattn_out = dx2
    g["wo"] = ctx.reshape(-1, d).T @ dattn_out.reshape(-1, d)
    g["bo"] = dattn_out.sum(axis=(0, 1))
    dctx = (dattn_out @ bp["wo"].T).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    dq_m, dk_m, dv_m = (np.empty((n, s, h, dh)) for _ in range(3))
    dq, dk, dv = (t.transpose(0, 2, 1, 3) for t in (dq_m, dk_m, dv_m))
    c = _chunk_samples(h, s)

    def attend_backward(i):
        j = slice(i, i + c)
        attn = _attention_probs(q[j], k[j], scale)
        dattn = dctx[j] @ v[j].transpose(0, 1, 3, 2)
        np.matmul(attn.transpose(0, 1, 3, 2), dctx[j], out=dv[j])
        dscores = softmax_backward(attn, dattn)
        dscores *= scale
        np.matmul(dscores, k[j], out=dq[j])
        np.matmul(dscores.transpose(0, 1, 3, 2), q[j], out=dk[j])

    _map(attend_backward, range(0, n, c))
    dq_m, dk_m, dv_m = (t.reshape(n, s, d) for t in (dq_m, dk_m, dv_m))
    h1_flat = h1.reshape(-1, d)
    g["wq"] = h1_flat.T @ dq_m.reshape(-1, d)
    g["bq"] = dq_m.sum(axis=(0, 1))
    g["wk"] = h1_flat.T @ dk_m.reshape(-1, d)
    g["bk"] = dk_m.sum(axis=(0, 1))
    g["wv"] = h1_flat.T @ dv_m.reshape(-1, d)
    g["bv"] = dv_m.sum(axis=(0, 1))
    dh1 = dq_m @ bp["wq"].T + dk_m @ bp["wk"].T + dv_m @ bp["wv"].T
    dx_ln, g["ln1_g"], g["ln1_b"] = layer_norm_backward(ln1_cache, bp["ln1_g"], dh1)
    dx = dx2 + dx_ln
    return dx, g


def encoder_forward_batch(x: np.ndarray, params: dict[str, np.ndarray],
                          cfg: BfmConfig, keep_cache: bool = False):
    """Full forward on a batch (N, C, T); returns (logits, pooled, cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"expected a batch (N, C, T), got shape {x.shape}")
    tokens, patches = _patchify_batch(x, params, cfg)
    blocks = [_block(params, i) for i in range(cfg.num_layers)]
    if keep_cache:
        # Backward's weight-gradient products need full-batch caches.
        h, block_caches = tokens, []
        for bp in blocks:
            h, cache = _block_forward(h, bp, cfg)
            block_caches.append(cache)
    else:
        # Samples are independent until pooling: each chunk runs every block.
        h = np.empty_like(tokens)
        c = _forward_chunk(*tokens.shape[1:])

        def run_blocks(i):
            hc = tokens[i:i + c]
            for bp in blocks:
                hc = _block_forward(hc, bp, cfg)[0]
            h[i:i + c] = hc

        _map(run_blocks, range(0, len(tokens), c))
    hf, lnf_cache = layer_norm_forward(h, params["final_g"], params["final_b"])
    pooled = hf.mean(axis=1)
    logits = pooled @ params["head_w"] + params["head_b"]
    if not np.all(np.isfinite(logits)):
        raise NumericError("encoder forward produced non-finite logits")
    full_cache = None
    if keep_cache:
        full_cache = (x.shape, patches, block_caches, lnf_cache, hf.shape[1], pooled)
    return logits, pooled, full_cache


def encoder_backward_batch(cache, params: dict[str, np.ndarray], cfg: BfmConfig,
                           dlogits: np.ndarray):
    """Gradients for all encoder parameters and the input batch."""
    x_shape, patches, block_caches, lnf_cache, seq_len, pooled = cache
    n, c, t = x_shape
    p = t // cfg.patch_len
    grads: dict[str, np.ndarray] = {}

    grads["head_w"] = pooled.T @ dlogits
    grads["head_b"] = dlogits.sum(axis=0)
    dpooled = dlogits @ params["head_w"].T
    dhf = np.broadcast_to((dpooled / seq_len)[:, None, :],
                          (n, seq_len, cfg.embed_dim))
    dh, grads["final_g"], grads["final_b"] = layer_norm_backward(
        lnf_cache, params["final_g"], dhf
    )
    for i in reversed(range(cfg.num_layers)):
        dh, block_grads = _block_backward(dh, _block(params, i), cfg, block_caches[i])
        for name, value in block_grads.items():
            grads[f"blocks.{i}.{name}"] = value

    demb = dh.reshape(n, c, p, cfg.embed_dim)
    grads["channel_embed"] = np.zeros_like(params["channel_embed"])
    grads["channel_embed"][:c] = demb.sum(axis=(0, 2))
    grads["temporal_embed"] = np.zeros_like(params["temporal_embed"])
    grads["temporal_embed"][:p] = demb.sum(axis=(0, 1))
    demb_flat = demb.reshape(-1, cfg.embed_dim)
    grads["patch_w"] = demb_flat.T @ patches.reshape(-1, cfg.patch_len)
    grads["patch_b"] = demb_flat.sum(axis=0)
    dx = (demb @ params["patch_w"]).reshape(n, c, t)
    return grads, dx
