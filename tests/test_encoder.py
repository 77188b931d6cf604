"""Patch embedding, attention stack, pooling, head, and their gradients."""

import ctypes
import os
import threading
import time
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from eegadapt import encoder
from eegadapt import model as model_module
from eegadapt.adapter import adapter_forward_batch, default_adapter_config
from eegadapt.encoder import (
    BfmConfig,
    _block,
    _block_backward,
    _block_forward,
    _patchify_batch,
    encoder_backward_batch,
    encoder_forward_batch,
    init_encoder_params,
)
from eegadapt.errors import (
    ConfigurationError,
    DimensionError,
    IntegrityError,
    NumericError,
)
from eegadapt.fileio import read_embeddings_text, write_embeddings_text
from eegadapt.model import EegClassifier, build_classifier
from eegadapt.nnops import (
    LAYERNORM_EPS,
    gelu,
    gelu_grad,
    layer_norm_backward,
    layer_norm_forward,
    softmax_backward,
    softmax_last,
)
from eegadapt.training import cross_entropy_batch
from helpers import force_forward_chunk, traced_peak


def small_config(**overrides):
    base = dict(num_channels=23, num_classes=4, patch_len=16, embed_dim=16,
                num_layers=2, num_heads=4, channel_vocab=23, max_patches=8)
    base.update(overrides)
    return BfmConfig(**base)


def tokens_of(x, params, cfg):
    """Tokens (N, C*P, D) the encoder builds from a batch x."""
    return _patchify_batch(x, params, cfg)[0]


def grads_of(x, params, cfg, upstream):
    """Gradients of sum(logits * upstream); returns (grads, dx)."""
    _, _, cache = encoder_forward_batch(x, params, cfg, keep_cache=True)
    return encoder_backward_batch(cache, params, cfg, upstream)


class TestConfig:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigurationError):
            small_config(embed_dim=30, num_heads=4)

    def test_vocab_must_cover_channels(self):
        with pytest.raises(ConfigurationError):
            small_config(num_channels=64, channel_vocab=23)


class TestPatchify:
    def test_token_count(self):
        cfg = small_config()
        params = init_encoder_params(cfg, np.random.default_rng(0))
        tokens = tokens_of(np.zeros((2, 23, 64)), params, cfg)
        assert tokens.shape == (2, 92, cfg.embed_dim)

    def test_zero_input_isolates_embedding_tables(self):
        cfg = small_config()
        params = init_encoder_params(cfg, np.random.default_rng(1))
        params["patch_b"][:] = 0.0
        tokens = tokens_of(np.zeros((2, 23, 32)), params, cfg)
        p = 2
        for c in range(23):
            for j in range(p):
                expected = params["channel_embed"][c] + params["temporal_embed"][j]
                np.testing.assert_allclose(tokens[:, c * p + j],
                                           [expected, expected], atol=0)

    def test_matches_per_patch_oracle(self):
        cfg = small_config()
        rng = np.random.default_rng(2)
        params = init_encoder_params(cfg, rng)
        x = rng.normal(size=(2, 23, 48))
        tokens = tokens_of(x, params, cfg)
        p = 3
        for n in range(2):
            for c in range(23):
                for j in range(p):
                    patch = x[n, c, j * 16 : (j + 1) * 16]
                    expected = (params["patch_w"] @ patch + params["patch_b"]
                                + params["channel_embed"][c]
                                + params["temporal_embed"][j])
                    np.testing.assert_allclose(tokens[n, c * p + j], expected,
                                               atol=1e-10)

    def test_divisibility_enforced(self):
        cfg = small_config()
        params = init_encoder_params(cfg, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            encoder_forward_batch(np.zeros((1, 23, 60)), params, cfg)


class TestEncode:
    def test_single_token_matches_manual_block(self):
        cfg = small_config(num_layers=1)
        rng = np.random.default_rng(4)
        params = init_encoder_params(cfg, rng)
        # One channel of one patch is a sequence of one token.
        x = rng.normal(size=(1, 1, cfg.patch_len))
        _, pooled, _ = encoder_forward_batch(x, params, cfg)

        # With one token, attention mixes the token with itself only.
        bp = {name: params[f"blocks.0.{name}"] for name in
              ("ln1_g", "ln1_b", "wv", "bv", "wo", "bo", "ln2_g", "ln2_b",
               "w1", "b1", "w2", "b2")}
        token = (params["patch_w"] @ x[0, 0] + params["patch_b"]
                 + params["channel_embed"][0] + params["temporal_embed"][0])[None]
        h1, _ = layer_norm_forward(token, bp["ln1_g"], bp["ln1_b"])
        v = h1 @ bp["wv"] + bp["bv"]
        attn_out = v @ bp["wo"] + bp["bo"]
        x2 = token + attn_out
        h2, _ = layer_norm_forward(x2, bp["ln2_g"], bp["ln2_b"])
        x3 = x2 + gelu(h2 @ bp["w1"] + bp["b1"])[0] @ bp["w2"] + bp["b2"]
        hf, _ = layer_norm_forward(x3, params["final_g"], params["final_b"])
        np.testing.assert_allclose(pooled, hf, atol=1e-12)

    def test_attention_rows_normalize(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(2, 4, 9, 9)) * 3.0
        attn = softmax_last(scores)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_token_permutation_leaves_pooling_unchanged(self):
        # Permuting the channels of x together with the rows of the channel
        # table permutes the token sequence; mean pooling must not notice.
        cfg = small_config()
        rng = np.random.default_rng(6)
        params = init_encoder_params(cfg, rng)
        x = rng.normal(size=(2, 20, 32))
        _, pooled, _ = encoder_forward_batch(x, params, cfg)
        perm = rng.permutation(20)
        permuted = dict(params)
        permuted["channel_embed"] = params["channel_embed"].copy()
        permuted["channel_embed"][:20] = params["channel_embed"][perm]
        _, pooled_perm, _ = encoder_forward_batch(x[:, perm], permuted, cfg)
        np.testing.assert_allclose(pooled_perm, pooled, atol=1e-9)

    def test_forward_is_deterministic(self):
        cfg = small_config()
        rng = np.random.default_rng(7)
        params = init_encoder_params(cfg, rng)
        x = rng.normal(size=(3, 23, 32))
        a, pa, _ = encoder_forward_batch(x, params, cfg)
        b, pb, _ = encoder_forward_batch(x, params, cfg)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(pa, pb)


class TestClassify:
    def test_zero_head(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        params = init_encoder_params(cfg, rng)
        logits, _, _ = encoder_forward_batch(rng.normal(size=(3, 23, 32)),
                                             params, cfg)
        np.testing.assert_array_equal(logits, np.zeros((3, cfg.num_classes)))

    def test_one_hot_head_selects_component(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = 0.0
        params["head_w"][5, 2] = 1.0
        logits, pooled, _ = encoder_forward_batch(rng.normal(size=(3, 23, 32)),
                                                  params, cfg)
        np.testing.assert_array_equal(logits[:, 2], pooled[:, 5])
        np.testing.assert_array_equal(logits[:, 0], 0.0)

    def test_matches_dot_product_oracle(self):
        cfg = small_config()
        rng = np.random.default_rng(8)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = rng.normal(size=params["head_w"].shape)
        params["head_b"][:] = rng.normal(size=params["head_b"].shape)
        logits, pooled, _ = encoder_forward_batch(rng.normal(size=(2, 23, 32)),
                                                  params, cfg)
        for n in range(2):
            for k in range(cfg.num_classes):
                expected = sum(pooled[n, d] * params["head_w"][d, k]
                               for d in range(cfg.embed_dim)) + params["head_b"][k]
                assert abs(logits[n, k] - expected) <= 1e-12


class TestGradients:
    def test_matches_finite_differences(self):
        cfg = small_config(num_channels=6, channel_vocab=23, patch_len=8,
                           max_patches=3)
        rng = np.random.default_rng(9)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = rng.normal(0, 0.3, params["head_w"].shape)
        params["head_b"][:] = rng.normal(0, 0.1, params["head_b"].shape)
        x = rng.normal(size=(1, 6, 24))
        upstream = rng.normal(size=(1, cfg.num_classes))
        grads, dx = grads_of(x, params, cfg, upstream)

        def objective():
            logits, _, _ = encoder_forward_batch(x, params, cfg)
            return float(np.sum(logits * upstream))

        h = 1e-5
        worst = 0.0
        for name, arr in params.items():
            flat = arr.reshape(-1)
            picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for idx in picks:
                orig = flat[idx]
                flat[idx] = orig + h
                plus = objective()
                flat[idx] = orig - h
                minus = objective()
                flat[idx] = orig
                numeric = (plus - minus) / (2 * h)
                analytic = grads[name].reshape(-1)[idx]
                worst = max(worst, abs(analytic - numeric)
                            / max(abs(analytic), abs(numeric), 1e-4))
        flat_x = x.reshape(-1)
        for idx in rng.choice(flat_x.size, size=30, replace=False):
            orig = flat_x[idx]
            flat_x[idx] = orig + h
            plus = objective()
            flat_x[idx] = orig - h
            minus = objective()
            flat_x[idx] = orig
            numeric = (plus - minus) / (2 * h)
            analytic = dx.reshape(-1)[idx]
            worst = max(worst, abs(analytic - numeric)
                        / max(abs(analytic), abs(numeric), 1e-4))
        assert worst <= 1e-4

    def test_zero_upstream_zero_gradients(self):
        cfg = small_config(num_channels=4, patch_len=8, max_patches=2)
        rng = np.random.default_rng(10)
        params = init_encoder_params(cfg, rng)
        grads, dx = grads_of(rng.normal(size=(1, 4, 16)), params, cfg,
                             np.zeros((1, cfg.num_classes)))
        assert np.all(dx == 0)
        for g in grads.values():
            assert np.all(g == 0)

    def test_unused_channel_rows_get_zero_gradient(self):
        cfg = small_config(num_channels=4, channel_vocab=23, patch_len=8,
                           max_patches=2)
        rng = np.random.default_rng(11)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = rng.normal(0, 0.3, params["head_w"].shape)
        grads, _ = grads_of(rng.normal(size=(1, 4, 16)), params, cfg,
                            rng.normal(size=(1, cfg.num_classes)))
        assert np.all(grads["channel_embed"][4:] == 0.0)
        assert np.any(grads["channel_embed"][:4] != 0.0)


class TestEmbeddingBatch:
    """The embeddings table loader makes the row checks of an embedding batch."""

    def test_alignment_enforced(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("0.0,1.0,0,a\n0.0,1.0,2.0,1,b\n")
        with pytest.raises(IntegrityError, match="2: 3 values"):
            read_embeddings_text(path)

    def test_valid_batch(self, tmp_path):
        path = tmp_path / "e.csv"
        write_embeddings_text(path, np.zeros((2, 4)), np.array([0, 1]), ["a", "b"])
        embeddings, labels, subjects = read_embeddings_text(path)
        assert embeddings.shape == (2, 4)
        assert labels.tolist() == [0, 1] and subjects == ["a", "b"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_rejected(self, tmp_path, value):
        path = tmp_path / "e.csv"
        path.write_text(f"0.0,{value},0,a\n")
        with pytest.raises(NumericError):
            read_embeddings_text(path)


# ------------------------------------------------------------------------
# Out-of-place reference formulas. The encoder works in place and keeps the
# GELU CDF instead of its output; these are the plain expressions it must
# reproduce bit for bit.


def ref_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def ref_gelu_grad(x):
    phi = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * phi


def ref_softmax(x):
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def ref_softmax_backward(probs, dprobs):
    inner = np.sum(dprobs * probs, axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def ref_layer_norm(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LAYERNORM_EPS)
    xhat = (x - mean) * inv_std
    return xhat * gamma + beta, (xhat, inv_std)


def ref_layer_norm_backward(cache, gamma, dy):
    xhat, inv_std = cache
    axes = tuple(range(dy.ndim - 1))
    dxhat = dy * gamma
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_std
    return dx, np.sum(dy * xhat, axis=axes), np.sum(dy, axis=axes)


def ref_block_forward(x, bp, cfg):
    n, s, d = x.shape
    h, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    h1, ln1 = layer_norm_forward(x, bp["ln1_g"], bp["ln1_b"])
    q = (h1 @ bp["wq"] + bp["bq"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    k = (h1 @ bp["wk"] + bp["bk"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    v = (h1 @ bp["wv"] + bp["bv"]).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    attn = ref_softmax((q @ k.transpose(0, 1, 3, 2)) * scale)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(n, s, d)
    x2 = x + (ctx @ bp["wo"] + bp["bo"])
    h2, ln2 = layer_norm_forward(x2, bp["ln2_g"], bp["ln2_b"])
    a1 = h2 @ bp["w1"] + bp["b1"]
    g1 = ref_gelu(a1)
    x3 = x2 + g1 @ bp["w2"] + bp["b2"]
    return x3, (h1, ln1, q, k, v, attn, ctx, h2, ln2, a1, g1)


def ref_block_backward(dout, bp, cfg, cache):
    h1, ln1, q, k, v, attn, ctx, h2, ln2, a1, g1 = cache
    n, s, d = dout.shape
    h, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    g = {}
    g["w2"] = g1.reshape(-1, cfg.ff_dim).T @ dout.reshape(-1, d)
    g["b2"] = dout.sum(axis=(0, 1))
    da1 = (dout @ bp["w2"].T) * ref_gelu_grad(a1)
    g["w1"] = h2.reshape(-1, d).T @ da1.reshape(-1, cfg.ff_dim)
    g["b1"] = da1.sum(axis=(0, 1))
    dx2_ln, g["ln2_g"], g["ln2_b"] = layer_norm_backward(
        ln2, bp["ln2_g"], da1 @ bp["w1"].T)
    dx2 = dout + dx2_ln
    g["wo"] = ctx.reshape(-1, d).T @ dx2.reshape(-1, d)
    g["bo"] = dx2.sum(axis=(0, 1))
    dctx = (dx2 @ bp["wo"].T).reshape(n, s, h, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = ref_softmax_backward(attn, dattn) * scale
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    merged = [t.transpose(0, 2, 1, 3).reshape(n, s, d) for t in (dq, dk, dv)]
    h1_flat = h1.reshape(-1, d)
    for name, dm in zip("qkv", merged):
        g[f"w{name}"] = h1_flat.T @ dm.reshape(-1, d)
        g[f"b{name}"] = dm.sum(axis=(0, 1))
    dh1 = (merged[0] @ bp["wq"].T + merged[1] @ bp["wk"].T
           + merged[2] @ bp["wv"].T)
    dx_ln, g["ln1_g"], g["ln1_b"] = layer_norm_backward(ln1, bp["ln1_g"], dh1)
    return dx2 + dx_ln, g


def ref_encoder(x, params, cfg, dlogits):
    """Logits, every parameter gradient and dx, all out of place."""
    n, c, t = x.shape
    p = t // cfg.patch_len
    h, patches = _patchify_batch(x, params, cfg)
    caches = []
    for i in range(cfg.num_layers):
        h, cache = ref_block_forward(h, _block(params, i), cfg)
        caches.append(cache)
    hf, lnf = layer_norm_forward(h, params["final_g"], params["final_b"])
    pooled = hf.mean(axis=1)
    logits = pooled @ params["head_w"] + params["head_b"]

    grads = {"head_w": pooled.T @ dlogits, "head_b": dlogits.sum(axis=0)}
    dpooled = dlogits @ params["head_w"].T
    seq = hf.shape[1]
    dhf = np.repeat(dpooled[:, None, :] / seq, seq, axis=1)
    dh, grads["final_g"], grads["final_b"] = layer_norm_backward(
        lnf, params["final_g"], dhf)
    for i in reversed(range(cfg.num_layers)):
        dh, block_grads = ref_block_backward(dh, _block(params, i), cfg, caches[i])
        grads.update((f"blocks.{i}.{k}", g) for k, g in block_grads.items())
    demb = dh.reshape(n, c, p, cfg.embed_dim)
    grads["channel_embed"] = np.zeros_like(params["channel_embed"])
    grads["channel_embed"][:c] = demb.sum(axis=(0, 2))
    grads["temporal_embed"] = np.zeros_like(params["temporal_embed"])
    grads["temporal_embed"][:p] = demb.sum(axis=(0, 1))
    demb_flat = demb.reshape(-1, cfg.embed_dim)
    grads["patch_w"] = demb_flat.T @ patches.reshape(-1, cfg.patch_len)
    grads["patch_b"] = demb_flat.sum(axis=0)
    return logits, grads, (demb @ params["patch_w"]).reshape(n, c, t)


def ref_forward(x, params, cfg):
    """Logits and pooled representations, all out of place."""
    h, _ = _patchify_batch(x, params, cfg)
    for i in range(cfg.num_layers):
        h, _ = ref_block_forward(h, _block(params, i), cfg)
    hf, _ = layer_norm_forward(h, params["final_g"], params["final_b"])
    pooled = hf.mean(axis=1)
    return pooled @ params["head_w"] + params["head_b"], pooled


def assert_same_grads(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def pooled_config():
    """6 channels x 4 patches = 24 tokens, 3 heads of 8."""
    return small_config(num_channels=6, embed_dim=24, num_heads=3, max_patches=4)


def encoder_only(cfg, params):
    """A classifier without an adapter around the given encoder arrays."""
    return EegClassifier(encoder_config=cfg, encoder=params)


def adapter_model(channels, patches, seed):
    """An adapter model whose encoder sees ``channels`` x ``patches`` tokens
    (3 heads of 8), with a random head, and a batch of 8 inputs of 5 x (16 x
    patches + 36)."""
    cfg = small_config(num_channels=channels, embed_dim=24, num_heads=3,
                       max_patches=patches, channel_vocab=max(23, channels))
    steps = 16 * patches + 36
    adapter_cfg = default_adapter_config(5, steps, 16 * patches,
                                         out_channels=channels, hidden_maps=8)
    model = build_classifier(cfg, adapter_cfg, seed=seed)
    rng = np.random.default_rng(seed)
    model.encoder["head_w"][:] = rng.normal(0, 0.3, (cfg.embed_dim,
                                                     cfg.num_classes))
    return model, rng.normal(size=(8, 5, steps)), rng.integers(0, 4, size=8)


def test_blas_is_held_at_one_thread():
    # numpy's bundled OpenBLAS exports the setter; without it the bytes
    # would follow the BLAS thread count again.
    assert model_module.own_threads()
    lib = next((Path(np.__file__).resolve().parent.parent / "numpy.libs")
               .glob("libscipy_openblas64_*.so"))
    getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
    getter.argtypes, getter.restype = [], ctypes.c_int
    assert getter() == 1


class TestInPlaceHotPath:
    """The in-place encoder reproduces the out-of-place formulas exactly."""

    # Head dims of 24, 12 and 8: a power-of-four head dim would make the
    # scale 1/sqrt(dh) a power of two, which hides where it is applied.
    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_block_matches_out_of_place_formulas_bitwise(self, heads):
        cfg = small_config(embed_dim=24, num_heads=heads)
        rng = np.random.default_rng(20 + heads)
        params = init_encoder_params(cfg, rng)
        bp = _block(params, 1)
        # An odd batch: attention runs sample by sample over all five.
        x = rng.normal(size=(5, 10, cfg.embed_dim))
        dout = rng.normal(size=x.shape)
        out, cache = _block_forward(x, bp, cfg)
        ref_out, ref_cache = ref_block_forward(x, bp, cfg)
        assert np.array_equal(out, ref_out)
        dx, grads = _block_backward(dout, bp, cfg, cache)
        ref_dx, ref_grads = ref_block_backward(dout, bp, cfg, ref_cache)
        assert np.array_equal(dx, ref_dx)
        assert_same_grads(grads, ref_grads)

    # 6 channels x 4 patches = 24 tokens keep their probabilities for
    # backward; 6 x 40 = 240 tokens are over the keep rule, so backward
    # recomputes them.
    @pytest.mark.parametrize("heads", [2, 3])
    def test_encoder_matches_out_of_place_formulas_bitwise(self, heads):
        for patches, kept in ((4, True), (40, False)):
            cfg = small_config(num_channels=6, embed_dim=24, num_heads=heads,
                               max_patches=patches)
            rng = np.random.default_rng(30 + heads)
            params = init_encoder_params(cfg, rng)
            params["head_w"][:] = rng.normal(0, 0.3, params["head_w"].shape)
            x = rng.normal(size=(5, 6, 16 * patches))
            dlogits = rng.normal(size=(5, cfg.num_classes))
            shape = model_module._kept_probs_shape(cfg, x.shape)
            assert (shape is not None) == kept
            logits, _, cache = encoder_forward_batch(
                x, params, cfg, keep_cache=np.empty(shape) if kept else True)
            grads, dx = encoder_backward_batch(cache, params, cfg, dlogits)
            ref_logits, ref_grads, ref_dx = ref_encoder(x, params, cfg, dlogits)
            assert np.array_equal(logits, ref_logits)
            assert np.array_equal(dx, ref_dx)
            assert_same_grads(grads, ref_grads)
            # Backward leaves its cache intact, so it can run again.
            again, dx_again = encoder_backward_batch(cache, params, cfg, dlogits)
            assert np.array_equal(dx_again, dx)
            assert_same_grads(again, grads)

    # The benchmark's token grid, two odd ones and a one-wide feature axis;
    # the upstream gradient is also given as the encoder's final norm gets
    # it, broadcast over the tokens.
    @pytest.mark.parametrize("shape", [(4, 161, 32), (7, 23, 16), (2, 5, 8),
                                       (3, 6, 1)])
    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_layer_norm_matches_out_of_place_formulas_bitwise(self, shape, scale):
        rng = np.random.default_rng(shape[1])
        x = rng.normal(3.0, scale, size=shape)
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        out, cache = layer_norm_forward(x, gamma, beta)
        ref_out, ref_cache = ref_layer_norm(x, gamma, beta)
        assert np.array_equal(out, ref_out)
        for got, want in zip(cache, ref_cache):
            assert np.array_equal(got, want)
        pooled_grad = rng.normal(size=(shape[0], 1, shape[2]))
        for dy in (rng.normal(size=shape), np.broadcast_to(pooled_grad, shape)):
            got = layer_norm_backward(cache, gamma, dy)
            for g, want in zip(got, ref_layer_norm_backward(ref_cache, gamma, dy)):
                assert np.array_equal(g, want)

    def test_block_cache_holds_no_score_tensor(self):
        cfg = small_config(embed_dim=24, num_heads=3)
        rng = np.random.default_rng(70)
        x = rng.normal(size=(4, 10, cfg.embed_dim))
        _, cache = _block_forward(x, _block(init_encoder_params(cfg, rng), 0), cfg)
        arrays = [a for item in cache
                  for a in (item if isinstance(item, tuple) else (item,))
                  if isinstance(a, np.ndarray)]
        assert arrays
        assert not any(a.shape[-3:] == (3, 10, 10) for a in arrays)

    def test_forward_peak_below_one_score_tensor(self):
        # 23 channels x 7 patches = 161 tokens and 4 heads, as in the
        # benchmark; at embed_dim 16 everything else the forward holds at
        # batch 64 stays below one (64, 4, 161, 161) score tensor.
        cfg = small_config(max_patches=7)
        rng = np.random.default_rng(71)
        params = init_encoder_params(cfg, rng)
        x = rng.normal(size=(64, 23, 112))
        full_scores = 64 * 4 * 161 * 161 * 8
        _, peak = traced_peak(encoder_forward_batch, x, params, cfg)
        assert peak < full_scores

    def test_no_cache_forward_peak_at_benchmark_shape(self):
        # Each chunk of samples runs the whole model, so the feed-forward's
        # (N, S, 4D) intermediates never exist for the whole batch: at batch
        # 64, 161 tokens and D = 32 the peak stays near a few chunks' working
        # sets.
        cfg = small_config(embed_dim=32, max_patches=7)
        rng = np.random.default_rng(72)
        model = encoder_only(cfg, init_encoder_params(cfg, rng))
        x = rng.normal(size=(64, 23, 112))
        _, peak = traced_peak(model.forward_batch, x)
        assert peak <= 25e6

    def test_no_cache_forward_holds_only_what_its_next_step_reads(self, workers):
        # 64 samples at the benchmark shape (161 tokens, 4 heads, D = 32) on
        # two workers. Each block frees its attention intermediates once the
        # context is formed and writes the GELU output over its input, so the
        # forward peaks at 4.17-4.20 MB above the input; keeping them through
        # the feed-forward, with the GELU output and CDF beside its input,
        # peaked at 8.04-8.48 MB.
        workers(2)
        cfg = small_config(embed_dim=32, max_patches=7)
        rng = np.random.default_rng(73)
        model = encoder_only(cfg, init_encoder_params(cfg, rng))
        x = rng.normal(size=(64, 23, 112))
        _, peak = traced_peak(model.forward_batch, x)
        assert peak <= 6e6

    # The no-cache forward runs chunks of 3 samples, so N = 4 makes one chunk
    # of four (a last sample joins the chunk before it) and N = 63 makes 21.
    # Four workers are more than the cores of most test machines.
    @pytest.mark.parametrize("count", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 4, 63])
    def test_no_cache_forward_matches_out_of_place_formulas_bitwise(
            self, monkeypatch, workers, count, n):
        workers(count)
        cfg = pooled_config()
        force_forward_chunk(monkeypatch, 3, cfg)
        rng = np.random.default_rng(80 + n)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = rng.normal(0, 0.3, params["head_w"].shape)
        x = rng.normal(size=(n, 6, 64))
        logits, pooled = encoder_only(cfg, params).forward_batch(x)
        ref_logits, ref_pooled = ref_forward(x, params, cfg)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(pooled, ref_pooled)
        # One or four samples make one chunk, which runs inline.
        assert (model_module._pool is not None) == (count > 1 and n > 4)

    @pytest.mark.parametrize("count", [1, 2])
    def test_chunked_adapter_forward_matches_one_chunk_bitwise(
            self, monkeypatch, workers, count):
        # The adapter runs per chunk too. Chunks of 3 over N = 7 make a chunk
        # of three and one of four, whose last sample would otherwise have
        # been a chunk of its own. The training step runs the same chunks.
        workers(count)
        cfg = pooled_config()
        adapter_cfg = default_adapter_config(5, 100, 64, out_channels=6,
                                             hidden_maps=8)
        model = build_classifier(cfg, adapter_cfg, seed=93)
        rng = np.random.default_rng(93)
        model.encoder["head_w"][:] = rng.normal(0, 0.3, (cfg.embed_dim,
                                                         cfg.num_classes))
        force_forward_chunk(monkeypatch, 3, cfg)
        x = rng.normal(size=(7, 5, 100))
        logits, pooled = model.forward_batch(x)
        assert (model_module._pool is not None) == (count > 1)
        _, step_logits, _ = model.loss_and_grads(x, np.arange(7) % 4,
                                                 cross_entropy_batch)
        assert np.array_equal(step_logits, logits)
        force_forward_chunk(monkeypatch, 7, cfg)
        whole_logits, whole_pooled = model.forward_batch(x)
        assert np.array_equal(logits, whole_logits)
        assert np.array_equal(pooled, whole_pooled)

    def test_training_step_is_bitwise_equal_on_one_and_two_workers(
            self, monkeypatch, workers):
        # Chunks of 3 over N = 8 leave a last chunk of two; the gradients are
        # summed in chunk order whichever worker finished first. The adapter
        # emits 6 x 4 = 24 tokens, which keep their probabilities for backward,
        # and then 16 x 17 = 272 tokens, which are over the keep rule.
        for channels, patches, kept in ((6, 4, True), (16, 17, False)):
            model, x, y = adapter_model(channels, patches, seed=94)
            cfg = model.encoder_config
            force_forward_chunk(monkeypatch, 3, cfg)
            for m in (2, 3):
                shape = (m, channels, 16 * patches)
                assert (model_module._kept_probs_shape(cfg, shape) is not None) == kept
            steps = []
            for count in (1, 2):
                workers(count)
                steps.append(model.loss_and_grads(x, y, cross_entropy_batch))
                assert (model_module._pool is not None) == (count > 1)
            (loss_1, logits_1, grads_1), (loss_2, logits_2, grads_2) = steps
            assert loss_1 == loss_2
            assert np.array_equal(logits_1, logits_2)
            assert_same_grads(grads_1, grads_2)
            assert sorted(grads_1) == sorted(n for n, _ in model.named_arrays())

    def test_kept_probabilities_give_the_bytes_of_recomputed_ones(self, monkeypatch):
        model, x, y = adapter_model(6, 4, seed=95)
        force_forward_chunk(monkeypatch, 3, model.encoder_config)
        kept = model.loss_and_grads(x, y, cross_entropy_batch)
        monkeypatch.setattr(model_module, "_kept_probs_shape", lambda cfg, shape: None)
        recomputed = model.loss_and_grads(x, y, cross_entropy_batch)
        assert kept[0] == recomputed[0]
        assert np.array_equal(kept[1], recomputed[1])
        assert_same_grads(kept[2], recomputed[2])

    @pytest.mark.parametrize("channels, patches, per_sample_layer",
                             [(6, 4, 1), (16, 17, 2)])
    def test_probabilities_are_computed_once_unless_over_the_keep_rule(
            self, monkeypatch, workers, channels, patches, per_sample_layer):
        workers(2)
        model, x, y = adapter_model(channels, patches, seed=96)
        force_forward_chunk(monkeypatch, 3, model.encoder_config)
        calls = []
        real = encoder._attention_probs

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(encoder, "_attention_probs", counted)
        model.loss_and_grads(x, y, cross_entropy_batch)
        layers = model.encoder_config.num_layers
        assert len(calls) == per_sample_layer * len(x) * layers

    def test_frozen_encoder_body_gets_no_gradients(self, monkeypatch):
        # The adapter and head gradients are the bytes of an unfrozen step.
        model, x, y = adapter_model(6, 4, seed=97)
        force_forward_chunk(monkeypatch, 3, model.encoder_config)
        _, _, full = model.loss_and_grads(x, y, cross_entropy_batch)
        _, _, frozen = model.loss_and_grads(x, y, cross_entropy_batch,
                                            freeze_bfm=True)
        trained = [n for n in full if n.startswith(("adapter.", "encoder.head_"))]
        assert sorted(frozen) == sorted(trained)
        assert_same_grads(frozen, {n: full[n] for n in trained})

        # Without an adapter only the head trains: no block runs backward,
        # and the head's gradients keep the bytes of an unfrozen step.
        cfg = pooled_config()
        rng = np.random.default_rng(97)
        bare = encoder_only(cfg, init_encoder_params(cfg, rng))
        bare.encoder["head_w"][:] = rng.normal(0, 0.3, bare.encoder["head_w"].shape)
        x, y = rng.normal(size=(8, 6, 64)), rng.integers(0, 4, size=8)
        force_forward_chunk(monkeypatch, 3, cfg)
        _, _, full = bare.loss_and_grads(x, y, cross_entropy_batch)
        backward_calls = []
        real = encoder._block_backward
        monkeypatch.setattr(encoder, "_block_backward",
                            lambda *a: backward_calls.append(1) or real(*a))
        _, _, frozen = bare.loss_and_grads(x, y, cross_entropy_batch,
                                           freeze_bfm=True)
        assert not backward_calls
        assert_same_grads(frozen, {n: full[n] for n in ("encoder.head_w",
                                                         "encoder.head_b")})

    def test_training_step_peak_at_benchmark_shape(self, workers):
        # One batch of 32 through the adapter (16 x 256 -> 23 x 112, 161
        # tokens, D = 32) on two workers. Each chunk of 4 keeps 2 x 3.3 MB of
        # probabilities, and its gradients join the sum as soon as it and the
        # chunks before it are done. With the probabilities recomputed in
        # backward and all 8 chunks' gradients summed at the end, this step
        # peaked at 25.0-27.1 MB; keeping them, it peaks at 32.9-34.5 MB.
        # Probabilities kept for one chunk more than the two that run at
        # once (+6.6 MB), or a batch-sized score tensor, would cross 36 MB.
        workers(2)
        cfg = small_config(embed_dim=32, max_patches=7)
        adapter_cfg = default_adapter_config(16, 256, out_channels=23,
                                             out_timesteps=112, hidden_maps=64)
        model = build_classifier(cfg, adapter_cfg, seed=98)
        rng = np.random.default_rng(98)
        x, y = rng.normal(size=(32, 16, 256)), rng.integers(0, 4, size=32)
        _, peak = traced_peak(model.loss_and_grads, x, y, cross_entropy_batch)
        assert peak <= 36e6

    @pytest.mark.parametrize("count", [1, 2])
    def test_error_in_a_chunk_reaches_the_caller(self, monkeypatch, workers, count):
        workers(count)
        cfg = pooled_config()
        force_forward_chunk(monkeypatch, 3, cfg)
        real = encoder._block_forward

        # Seven samples make chunks of three and four.
        def fail_on_last_chunk(x, bp, cfg, **kwargs):
            if x.shape[0] == 4:
                raise DimensionError("chunk of four samples")
            return real(x, bp, cfg, **kwargs)

        monkeypatch.setattr(encoder, "_block_forward", fail_on_last_chunk)
        rng = np.random.default_rng(90)
        model = encoder_only(cfg, init_encoder_params(cfg, rng))
        with pytest.raises(DimensionError, match="chunk of four samples"):
            model.forward_batch(rng.normal(size=(7, 6, 64)))

    def test_forward_started_on_a_pool_worker_finishes(self, monkeypatch, workers):
        # Both workers run a forward whose chunks would queue behind them on
        # the same pool; they must run inline instead of waiting forever.
        workers(2)
        cfg = pooled_config()
        force_forward_chunk(monkeypatch, 3, cfg)
        rng = np.random.default_rng(91)
        model = encoder_only(cfg, init_encoder_params(cfg, rng))
        x = rng.normal(size=(9, 6, 64))
        expected, _ = model.forward_batch(x)
        assert model_module._pool is not None
        results = []

        def on_workers():
            futures = [model_module._pool.submit(model.forward_batch, x)
                       for _ in range(2)]
            results.extend(future.result()[0] for future in futures)

        thread = threading.Thread(target=on_workers, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(results) == 2
        assert all(np.array_equal(r, expected) for r in results)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forward_in_a_forked_child_finishes(self, monkeypatch, workers):
        # The child inherits the parent's pool object but none of its
        # threads; its first forward must not wait on them.
        workers(2)
        cfg = pooled_config()
        force_forward_chunk(monkeypatch, 3, cfg)
        rng = np.random.default_rng(92)
        model = encoder_only(cfg, init_encoder_params(cfg, rng))
        x = rng.normal(size=(9, 6, 64))
        expected, _ = model.forward_batch(x)
        assert model_module._pool is not None
        pid = os.fork()
        if pid == 0:
            try:
                logits, _ = model.forward_batch(x)
                os._exit(0 if np.array_equal(logits, expected) else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's forward did not finish in 60 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_softmax_overwrites_and_returns_its_argument(self):
        x = np.random.default_rng(40).normal(size=(2, 3, 5, 5)) * 3.0
        expected = ref_softmax(x)
        out = softmax_last(x)
        assert out is x
        assert np.array_equal(x, expected)

    def test_softmax_backward_overwrites_only_the_upstream(self):
        rng = np.random.default_rng(41)
        probs = ref_softmax(rng.normal(size=(2, 3, 5, 5)))
        dprobs = rng.normal(size=probs.shape)
        probs_before = probs.copy()
        expected = ref_softmax_backward(probs, dprobs)
        out = softmax_backward(probs, dprobs)
        assert out is dprobs
        assert np.array_equal(dprobs, expected)
        assert np.array_equal(probs, probs_before)

    def test_gelu_returns_fresh_output_and_cdf(self):
        x = np.random.default_rng(42).normal(size=(4, 7)) * 3.0
        x_before = x.copy()
        out, cdf = gelu(x)
        assert out is not x and cdf is not x
        assert np.array_equal(x, x_before)
        assert np.array_equal(out, ref_gelu(x))
        assert np.array_equal(cdf, 0.5 * (1.0 + erf(x / np.sqrt(2.0))))
        assert np.array_equal(out, x * cdf)
        cdf_before = cdf.copy()
        grad = gelu_grad(x, cdf)
        assert np.array_equal(grad, ref_gelu_grad(x))
        assert np.array_equal(x, x_before) and np.array_equal(cdf, cdf_before)


@st.composite
def forward_cases(draw):
    """A model, a batch and a chunk size: heads that divide embed_dim, 1-3
    layers, a patch length, a token grid and an optional adapter."""
    dim = draw(st.sampled_from([8, 12, 16, 24]))
    heads = draw(st.sampled_from([h for h in (1, 2, 3, 4, 6, 8) if dim % h == 0]))
    patch_len = draw(st.sampled_from([4, 8, 16]))
    channels, patches = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cfg = small_config(num_channels=channels, embed_dim=dim, num_heads=heads,
                       num_layers=draw(st.integers(1, 3)), patch_len=patch_len,
                       max_patches=patches)
    seed = draw(st.integers(0, 2**16))
    adapter_cfg = None
    if draw(st.booleans()):
        steps = patch_len * patches
        adapter_cfg = default_adapter_config(3, steps + 36, steps,
                                             out_channels=channels, hidden_maps=4)
    model = build_classifier(cfg, adapter_cfg, seed=seed)
    rng = np.random.default_rng(seed)
    # Nonzero biases and gains other than one, so that no addition or product
    # is exact whatever order it runs in.
    for _, array in model.named_arrays():
        array += rng.normal(0, 0.1, array.shape)
    shape = ((3, adapter_cfg.in_timesteps) if adapter_cfg
             else (channels, patch_len * patches))
    x = rng.normal(size=(draw(st.integers(1, 13)), *shape))
    return model, x, draw(st.integers(2, 5))


# Derandomized, so the examples are fixed: they reach both sides of the
# keep-probabilities rule, chunk sizes that do not divide N, and models with
# and without an adapter (see the events with --hypothesis-show-statistics).
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=forward_cases())
def test_no_cache_forward_gives_the_bytes_of_the_cached_one(case):
    model, x, chunk = case
    cfg = model.encoder_config
    budget = chunk * 21 * cfg.num_channels * cfg.max_patches * cfg.embed_dim * 8
    with mock.patch.object(model_module, "_FORWARD_CHUNK_BYTES", budget):
        logits, pooled = model.forward_batch(x)
        x, chunks = model._chunks(x)
        event(f"adapter: {model.adapter is not None}")
        event(f"chunks divide N: {len(x) % chunk == 0}")
        for j in chunks:
            h = x[j]
            if model.adapter is not None:
                h, _ = adapter_forward_batch(h, model.adapter, model.adapter_config,
                                             keep_cache=True)
            kept = model_module._kept_probs_shape(cfg, h.shape)
            event(f"probabilities kept: {kept is not None}")
            ref_logits, ref_pooled, _ = encoder_forward_batch(
                h, model.encoder, cfg,
                keep_cache=True if kept is None else np.empty(kept))
            assert logits[j].tobytes() == ref_logits.tobytes()
            assert pooled[j].tobytes() == ref_pooled.tobytes()
