"""Compact trainable stand-in for the pretrained base encoder.

Temporal patch embedding plus channel and temporal position tables feed a
pre-norm multi-head self-attention stack; the pooled representation is the
mean over final-layer tokens and a linear head maps it to class logits.
Forward and backward are hand-written in double precision so gradients can
be verified against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError
from .errors import require_positive_ints
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
    "head_grads",
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
        require_positive_ints(self)
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


def _patchify_batch(x: np.ndarray, params: dict[str, np.ndarray], cfg: BfmConfig):
    """(N, C, T) -> tokens (N, C*P, D) with patches cached for backward.

    Token c*P + p is the patch embedding of x[:, c, p*patch_len:(p+1)*patch_len]
    plus the channel and temporal position embeddings.
    """
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
    patches = x.reshape(n, c, p, cfg.patch_len)
    emb = patches @ params["patch_w"].T + params["patch_b"]
    emb = emb + params["channel_embed"][None, :c, None, :]
    emb = emb + params["temporal_embed"][None, None, :p, :]
    return emb.reshape(n, c * p, cfg.embed_dim), patches


# Attention runs one sample at a time, so that at most one sample's (H, S, S)
# float64 scores are being built. Each sample's work is a call of its own,
# whose temporaries are freed before the next sample starts. A block that
# keeps a cache keeps its N samples' probabilities for backward when they fit
# this budget (4 x 4 x 161² x 8 = 3.3 MB for a chunk of 4 at the benchmark
# shape); backward recomputes them from q and k otherwise (S above ~250
# tokens in chunks of 2-3, e.g. raw 16 x 256 input).
_KEEP_PROBS_BYTES = 4 << 20


def _attention_probs(q: np.ndarray, k: np.ndarray, scale: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    attn = np.matmul(q, k.swapaxes(-1, -2), out=out)
    attn *= scale
    return softmax_last(attn)


def _block_forward(x, bp: dict[str, np.ndarray], cfg: BfmConfig,
                   keep: bool = True):
    """(output, cache); with ``keep`` the cache holds the attention
    probabilities when they fit ``_KEEP_PROBS_BYTES``. Without ``keep`` the
    cache is None and each intermediate goes once its next step has read it;
    the GELU output then overwrites its input."""
    n, s, d = x.shape
    h, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    keep_probs = keep and n * h * s * s * 8 <= _KEEP_PROBS_BYTES
    probs = np.empty((n, h, s, s)) if keep_probs else None

    h1, ln1_cache = layer_norm_forward(x, bp["ln1_g"], bp["ln1_b"])
    q = (h1 @ bp["wq"] + bp["bq"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    k = (h1 @ bp["wk"] + bp["bk"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    v = (h1 @ bp["wv"] + bp["bv"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    # Each sample's context is written head by head into token-major memory.
    ctx = np.empty((n, s, h, dh))
    ctx_heads = ctx.transpose(0, 2, 1, 3)

    def attend(i):
        attn = _attention_probs(q[i], k[i], scale, None if probs is None else probs[i])
        np.matmul(attn, v[i], out=ctx_heads[i])

    for i in range(n):
        attend(i)
    ctx = ctx.reshape(n, s, d)
    if not keep:
        del h1, ln1_cache, q, k, v, ctx_heads
    x2 = x + (ctx @ bp["wo"] + bp["bo"])
    if not keep:
        del ctx

    h2, ln2_cache = layer_norm_forward(x2, bp["ln2_g"], bp["ln2_b"])
    a1 = h2 @ bp["w1"] + bp["b1"]
    if keep:
        g1, cdf = gelu(a1)
    else:
        del h2, ln2_cache
        g1 = gelu(a1, out=a1)[0]  # and its CDF goes at once
    x3 = x2 + g1 @ bp["w2"] + bp["b2"]
    if not keep:
        return x3, None

    # Backward needs neither x nor x2, and rebuilds the GELU output as
    # a1 * cdf rather than keeping it.
    cache = (h1, ln1_cache, q, k, v, probs, ctx, h2, ln2_cache, a1, cdf)
    return x3, cache


def _block_backward(dout, bp: dict[str, np.ndarray], cfg: BfmConfig, cache,
                    param_grads: bool = True):
    """(dx, gradients of the block's arrays). With ``param_grads`` False the
    weight-gradient products and bias sums are skipped, so only the layer-norm
    gradients come back. Reads the cache and leaves it as it was."""
    h1, ln1_cache, q, k, v, probs, ctx, h2, ln2_cache, a1, cdf = cache
    n, s, d = dout.shape
    h, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    g: dict[str, np.ndarray] = {}

    # Feed-forward branch.
    df = dout
    if param_grads:
        g1 = a1 * cdf
        g["w2"] = g1.reshape(-1, cfg.ff_dim).T @ df.reshape(-1, d)
        g["b2"] = df.sum(axis=(0, 1))
        del g1  # gone before da1 and its temporaries: a lower peak
    da1 = df @ bp["w2"].T
    da1 *= gelu_grad(a1, cdf)
    if param_grads:
        g["w1"] = h2.reshape(-1, d).T @ da1.reshape(-1, cfg.ff_dim)
        g["b1"] = da1.sum(axis=(0, 1))
    dh2 = da1 @ bp["w1"].T
    dx2_ln, g["ln2_g"], g["ln2_b"] = layer_norm_backward(ln2_cache, bp["ln2_g"], dh2)
    dx2 = dout + dx2_ln

    # Attention branch.
    dattn_out = dx2
    if param_grads:
        g["wo"] = ctx.reshape(-1, d).T @ dattn_out.reshape(-1, d)
        g["bo"] = dattn_out.sum(axis=(0, 1))
    dctx = (dattn_out @ bp["wo"].T).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    dq_m, dk_m, dv_m = (np.empty((n, s, h, dh)) for _ in range(3))
    dq, dk, dv = (t.transpose(0, 2, 1, 3) for t in (dq_m, dk_m, dv_m))

    def attend_backward(i):
        attn = probs[i] if probs is not None else _attention_probs(q[i], k[i], scale)
        dattn = dctx[i] @ v[i].swapaxes(-1, -2)
        np.matmul(attn.swapaxes(-1, -2), dctx[i], out=dv[i])
        dscores = softmax_backward(attn, dattn)
        dscores *= scale
        np.matmul(dscores, k[i], out=dq[i])
        np.matmul(dscores.swapaxes(-1, -2), q[i], out=dk[i])

    for i in range(n):
        attend_backward(i)
    dq_m, dk_m, dv_m = (t.reshape(n, s, d) for t in (dq_m, dk_m, dv_m))
    if param_grads:
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
    """Full forward on a batch (N, C, T); returns (logits, pooled, cache).

    ``keep_cache`` False keeps nothing for backward. True keeps each block's
    activations, with its attention probabilities when they fit the keep
    budget; backward recomputes those it does not find.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"expected a batch (N, C, T), got shape {x.shape}")
    h, patches = _patchify_batch(x, params, cfg)
    block_caches = []
    for i in range(cfg.num_layers):
        h, cache = _block_forward(h, _block(params, i), cfg, keep=keep_cache)
        block_caches.append(cache)
    hf, lnf_cache = layer_norm_forward(h, params["final_g"], params["final_b"])
    pooled = hf.mean(axis=1)
    logits = pooled @ params["head_w"] + params["head_b"]
    if not np.all(np.isfinite(logits)):
        raise NumericError("encoder forward produced non-finite logits")
    full_cache = (x.shape, patches, block_caches, lnf_cache, hf.shape[1], pooled)
    return logits, pooled, full_cache if keep_cache else None


def head_grads(pooled: np.ndarray, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """The linear head's gradients from the pooled batch and dlogits."""
    return {"head_w": pooled.T @ dlogits, "head_b": dlogits.sum(axis=0)}


def encoder_backward_batch(cache, params: dict[str, np.ndarray], cfg: BfmConfig,
                           dlogits: np.ndarray, body_grads: bool = True):
    """Gradients for the encoder parameters and the input batch.

    With ``body_grads`` False only the head's gradients are computed and
    returned, with the input gradient; the body's weight-gradient products and
    table sums are skipped."""
    x_shape, patches, block_caches, lnf_cache, seq_len, pooled = cache
    n, c, t = x_shape
    p = t // cfg.patch_len
    grads = head_grads(pooled, dlogits)
    dpooled = dlogits @ params["head_w"].T
    dhf = np.broadcast_to((dpooled / seq_len)[:, None, :],
                          (n, seq_len, cfg.embed_dim))
    dh, final_g, final_b = layer_norm_backward(lnf_cache, params["final_g"], dhf)
    if body_grads:
        grads["final_g"], grads["final_b"] = final_g, final_b
    for i in reversed(range(cfg.num_layers)):
        dh, block_grads = _block_backward(dh, _block(params, i), cfg,
                                          block_caches[i], body_grads)
        if body_grads:
            for name, value in block_grads.items():
                grads[f"blocks.{i}.{name}"] = value

    demb = dh.reshape(n, c, p, cfg.embed_dim)
    if body_grads:
        grads["channel_embed"] = np.zeros_like(params["channel_embed"])
        grads["channel_embed"][:c] = demb.sum(axis=(0, 2))
        grads["temporal_embed"] = np.zeros_like(params["temporal_embed"])
        grads["temporal_embed"][:p] = demb.sum(axis=(0, 1))
        demb_flat = demb.reshape(-1, cfg.embed_dim)
        grads["patch_w"] = demb_flat.T @ patches.reshape(-1, cfg.patch_len)
        grads["patch_b"] = demb_flat.sum(axis=0)
    dx = (demb @ params["patch_w"]).reshape(n, c, t)
    return grads, dx
