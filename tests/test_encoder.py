"""Patch embedding, attention stack, pooling, head, and their gradients."""

import numpy as np
import pytest

from eegadapt.encoder import (
    BfmConfig,
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
from eegadapt.nnops import gelu, layer_norm_forward, softmax_last


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
        x3 = x2 + gelu(h2 @ bp["w1"] + bp["b1"]) @ bp["w2"] + bp["b2"]
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
