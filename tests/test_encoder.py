"""Patch embedding, attention stack, pooling, head, and their gradients."""

import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from eegadapt import encoder
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
from eegadapt.nnops import (
    gelu,
    gelu_grad,
    layer_norm_backward,
    layer_norm_forward,
    softmax_backward,
    softmax_last,
)


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


def force_chunk(monkeypatch, chunk, heads, seq_len):
    """Make attention run over chunks of ``chunk`` samples at this shape."""
    monkeypatch.setattr(encoder, "_SCORE_CHUNK_BYTES",
                        chunk * heads * seq_len * seq_len * 8)
    assert encoder._chunk_samples(heads, seq_len) == chunk


def force_forward_chunk(monkeypatch, chunk, seq_len, dim):
    """Make the no-cache forward run over chunks of ``chunk`` samples."""
    monkeypatch.setattr(encoder, "_FORWARD_CHUNK_BYTES",
                        chunk * 21 * seq_len * dim * 8)
    assert encoder._forward_chunk(seq_len, dim) == chunk


@pytest.fixture
def workers(monkeypatch):
    """Set the encoder's worker count; the next parallel map makes a fresh
    pool of that size, which is shut down after the test. Threads switch
    every microsecond meanwhile, so that chunks interleave as much as they
    can."""
    def set_count(count):
        monkeypatch.setattr(encoder, "_WORKERS", count)
        monkeypatch.setattr(encoder, "_pool", None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield set_count
    finally:
        sys.setswitchinterval(interval)
        if encoder._pool is not None:
            encoder._pool.shutdown()


def pooled_config():
    """6 channels x 4 patches = 24 tokens, 3 heads of 8."""
    return small_config(num_channels=6, embed_dim=24, num_heads=3, max_patches=4)


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
        x = rng.normal(size=(3, 10, cfg.embed_dim))
        dout = rng.normal(size=x.shape)
        out, cache = _block_forward(x, bp, cfg)
        ref_out, ref_cache = ref_block_forward(x, bp, cfg)
        assert np.array_equal(out, ref_out)
        dx, grads = _block_backward(dout, bp, cfg, cache)
        ref_dx, ref_grads = ref_block_backward(dout, bp, cfg, ref_cache)
        assert np.array_equal(dx, ref_dx)
        assert_same_grads(grads, ref_grads)

    @pytest.mark.parametrize("heads", [2, 3])
    def test_encoder_matches_out_of_place_formulas_bitwise(self, heads):
        cfg = small_config(num_channels=6, embed_dim=24, num_heads=heads,
                           max_patches=4)
        rng = np.random.default_rng(30 + heads)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = rng.normal(0, 0.3, params["head_w"].shape)
        x = rng.normal(size=(4, 6, 64))
        dlogits = rng.normal(size=(4, cfg.num_classes))
        logits, _, cache = encoder_forward_batch(x, params, cfg, keep_cache=True)
        grads, dx = encoder_backward_batch(cache, params, cfg, dlogits)
        ref_logits, ref_grads, ref_dx = ref_encoder(x, params, cfg, dlogits)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(dx, ref_dx)
        assert_same_grads(grads, ref_grads)
        # Backward leaves its cache intact, so it can run again.
        again, dx_again = encoder_backward_batch(cache, params, cfg, dlogits)
        assert np.array_equal(dx_again, dx)
        assert_same_grads(again, grads)

    @pytest.mark.parametrize("chunk,heads", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_chunked_block_matches_out_of_place_formulas_bitwise(
            self, monkeypatch, chunk, heads):
        cfg = small_config(embed_dim=24, num_heads=heads)
        force_chunk(monkeypatch, chunk, heads, 10)
        rng = np.random.default_rng(50 + heads)
        params = init_encoder_params(cfg, rng)
        bp = _block(params, 0)
        # Five samples: a chunk of 2 leaves a last chunk of one.
        x = rng.normal(size=(5, 10, cfg.embed_dim))
        dout = rng.normal(size=x.shape)
        out, cache = _block_forward(x, bp, cfg)
        ref_out, ref_cache = ref_block_forward(x, bp, cfg)
        assert np.array_equal(out, ref_out)
        dx, grads = _block_backward(dout, bp, cfg, cache)
        ref_dx, ref_grads = ref_block_backward(dout, bp, cfg, ref_cache)
        assert np.array_equal(dx, ref_dx)
        assert_same_grads(grads, ref_grads)

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_chunked_encoder_matches_out_of_place_formulas_bitwise(
            self, monkeypatch, chunk):
        cfg = small_config(num_channels=6, embed_dim=24, num_heads=3,
                           max_patches=4)
        force_chunk(monkeypatch, chunk, 3, 6 * 4)
        rng = np.random.default_rng(60 + chunk)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = rng.normal(0, 0.3, params["head_w"].shape)
        x = rng.normal(size=(5, 6, 64))
        dlogits = rng.normal(size=(5, cfg.num_classes))
        logits, _, cache = encoder_forward_batch(x, params, cfg, keep_cache=True)
        grads, dx = encoder_backward_batch(cache, params, cfg, dlogits)
        ref_logits, ref_grads, ref_dx = ref_encoder(x, params, cfg, dlogits)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(dx, ref_dx)
        assert_same_grads(grads, ref_grads)

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
        tracemalloc.start()
        try:
            encoder_forward_batch(x, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_scores

    def test_no_cache_forward_peak_at_benchmark_shape(self):
        # Each chunk of samples runs the whole block stack, so the feed-
        # forward's (N, S, 4D) intermediates never exist for the whole batch:
        # at batch 64, 161 tokens and D = 32 the peak stays near the
        # batch-wide tokens and final norm.
        cfg = small_config(embed_dim=32, max_patches=7)
        rng = np.random.default_rng(72)
        params = init_encoder_params(cfg, rng)
        x = rng.normal(size=(64, 23, 112))
        tracemalloc.start()
        try:
            encoder_forward_batch(x, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25e6

    # The no-cache forward runs chunks of 3 samples, each with attention
    # chunks of 2, so N = 4 leaves a last chunk of one and N = 63 makes 21.
    # Four workers are more than the cores of most test machines.
    @pytest.mark.parametrize("count", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 4, 63])
    def test_no_cache_forward_matches_out_of_place_formulas_bitwise(
            self, monkeypatch, workers, count, n):
        workers(count)
        cfg = pooled_config()
        force_forward_chunk(monkeypatch, 3, 24, cfg.embed_dim)
        force_chunk(monkeypatch, 2, 3, 24)
        rng = np.random.default_rng(80 + n)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = rng.normal(0, 0.3, params["head_w"].shape)
        x = rng.normal(size=(n, 6, 64))
        logits, pooled, cache = encoder_forward_batch(x, params, cfg)
        ref_logits, ref_pooled = ref_forward(x, params, cfg)
        assert cache is None
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(pooled, ref_pooled)
        # One sample makes one chunk, which runs inline.
        assert (encoder._pool is not None) == (count > 1 and n > 1)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_training_pass_on_workers_matches_out_of_place_formulas_bitwise(
            self, monkeypatch, workers, count):
        # Attention forward and backward run one sample per chunk.
        workers(count)
        cfg = pooled_config()
        force_chunk(monkeypatch, 1, 3, 24)
        rng = np.random.default_rng(85 + count)
        params = init_encoder_params(cfg, rng)
        params["head_w"][:] = rng.normal(0, 0.3, params["head_w"].shape)
        x = rng.normal(size=(9, 6, 64))
        dlogits = rng.normal(size=(9, cfg.num_classes))
        logits, _, cache = encoder_forward_batch(x, params, cfg, keep_cache=True)
        grads, dx = encoder_backward_batch(cache, params, cfg, dlogits)
        ref_logits, ref_grads, ref_dx = ref_encoder(x, params, cfg, dlogits)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(dx, ref_dx)
        assert_same_grads(grads, ref_grads)
        assert (encoder._pool is not None) == (count > 1)

    @pytest.mark.parametrize("count", [1, 2])
    def test_error_in_a_chunk_reaches_the_caller(self, monkeypatch, workers, count):
        workers(count)
        cfg = pooled_config()
        force_forward_chunk(monkeypatch, 3, 24, cfg.embed_dim)
        real = encoder._block_forward

        def fail_on_last_chunk(x, bp, cfg):
            if x.shape[0] == 1:
                raise DimensionError("chunk of one sample")
            return real(x, bp, cfg)

        monkeypatch.setattr(encoder, "_block_forward", fail_on_last_chunk)
        rng = np.random.default_rng(90)
        params = init_encoder_params(cfg, rng)
        with pytest.raises(DimensionError, match="chunk of one sample"):
            encoder_forward_batch(rng.normal(size=(7, 6, 64)), params, cfg)

    def test_forward_started_on_a_pool_worker_finishes(self, monkeypatch, workers):
        # Both workers run a forward whose chunks would queue behind them on
        # the same pool; they must run inline instead of waiting forever.
        workers(2)
        cfg = pooled_config()
        force_forward_chunk(monkeypatch, 3, 24, cfg.embed_dim)
        rng = np.random.default_rng(91)
        params = init_encoder_params(cfg, rng)
        x = rng.normal(size=(9, 6, 64))
        expected, _, _ = encoder_forward_batch(x, params, cfg)
        assert encoder._pool is not None
        results = []

        def on_workers():
            futures = [encoder._pool.submit(encoder_forward_batch, x, params, cfg)
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
        force_forward_chunk(monkeypatch, 3, 24, cfg.embed_dim)
        rng = np.random.default_rng(92)
        params = init_encoder_params(cfg, rng)
        x = rng.normal(size=(9, 6, 64))
        expected, _, _ = encoder_forward_batch(x, params, cfg)
        assert encoder._pool is not None
        pid = os.fork()
        if pid == 0:
            try:
                logits, _, _ = encoder_forward_batch(x, params, cfg)
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
