"""The channel-distillation network: shapes, forward oracle, gradients."""

import numpy as np
import pytest

from eegadapt.adapter import (
    AdapterConfig,
    ConvLayerSpec,
    adapter_backward_batch,
    adapter_forward_batch,
    default_adapter_config,
    init_adapter_params,
)
from eegadapt.errors import ConfigurationError, DimensionError
from eegadapt.nnops import conv1d_forward, conv1d_input_grad, gelu, gelu_grad


def naive_forward(x, params, cfg):
    """Direct nested-loop convolution of one sample, the independent oracle."""
    h = np.asarray(x, dtype=np.float64)
    for i, spec in enumerate(cfg.layers):
        w, b = params[f"layers.{i}.w"], params[f"layers.{i}.b"]
        t_out = (h.shape[1] - spec.kernel_len) // spec.stride + 1
        z = np.zeros((spec.out_maps, t_out))
        for o in range(spec.out_maps):
            for t in range(t_out):
                acc = 0.0
                for c in range(h.shape[0]):
                    for j in range(spec.kernel_len):
                        acc += w[o, c, j] * h[c, t * spec.stride + j]
                z[o, t] = acc + b[o]
        h = gelu(z)[0] if spec.activation == "gelu" else z
    return h


def forward(x, params, cfg):
    return adapter_forward_batch(x, params, cfg)[0]


def forward_backward(x, params, cfg, upstream):
    """Parameter gradients of sum(forward(x) * upstream)."""
    _, cache = adapter_forward_batch(x, params, cfg, keep_cache=True)
    return adapter_backward_batch(cache, params, cfg, upstream)


def input_gradient(x, params, cfg, upstream):
    """Gradient of sum(forward(x) * upstream) with respect to x, chained back
    through the layers with nnops.conv1d_input_grad."""
    h, steps = x, []
    for i, spec in enumerate(cfg.layers):
        z = conv1d_forward(h, params[f"layers.{i}.w"], params[f"layers.{i}.b"],
                           spec.stride)
        steps.append((h.shape[2], z))
        h = gelu(z)[0] if spec.activation == "gelu" else z
    dh = upstream
    for i in reversed(range(len(cfg.layers))):
        t_in, z = steps[i]
        if cfg.layers[i].activation == "gelu":
            dh = dh * gelu_grad(z, gelu(z)[1])
        dh = conv1d_input_grad(params[f"layers.{i}.w"], cfg.layers[i].stride,
                               dh, t_in)
    return dh


class TestConfigArithmetic:
    def test_exact_cascade_required(self):
        # (10 - 3) / 2 does not divide; the constructor must refuse.
        with pytest.raises(ConfigurationError):
            AdapterConfig(in_channels=2, in_timesteps=10, out_channels=4,
                          out_timesteps=4,
                          layers=(ConvLayerSpec(4, 3, 2),))

    def test_wrong_declared_output_len(self):
        with pytest.raises(ConfigurationError):
            AdapterConfig(in_channels=2, in_timesteps=10, out_channels=4,
                          out_timesteps=5,
                          layers=(ConvLayerSpec(4, 3, 1),))

    def test_final_maps_must_match_out_channels(self):
        with pytest.raises(ConfigurationError):
            AdapterConfig(in_channels=2, in_timesteps=10, out_channels=4,
                          out_timesteps=8,
                          layers=(ConvLayerSpec(6, 3, 1),))

    def test_default_config_solves_exactly(self):
        for t, out in [(256, 112), (128, 112), (256, 240), (64, 16)]:
            cfg = default_adapter_config(8, t, out_timesteps=out)
            assert cfg.out_timesteps == out
            assert cfg.layers[-1].out_maps == 23

    def test_unsolvable_target_rejected(self):
        with pytest.raises(ConfigurationError):
            default_adapter_config(8, 64, out_timesteps=63)


class TestForward:
    def test_zero_input_zero_bias_gives_zero(self):
        cfg = default_adapter_config(4, 40, out_timesteps=16)
        params = init_adapter_params(cfg, np.random.default_rng(0))
        out = forward(np.zeros((3, 4, 40)), params, cfg)
        np.testing.assert_array_equal(out, np.zeros((3, 23, 16)))

    def test_unit_kernel_identity_selection(self):
        # One layer, kernel 1, stride 1, each output map copies one input row.
        cfg = AdapterConfig(in_channels=3, in_timesteps=5, out_channels=2,
                            out_timesteps=5,
                            layers=(ConvLayerSpec(2, 1, 1, "none"),))
        w = np.zeros((2, 3, 1))
        w[0, 2, 0] = 1.0
        w[1, 0, 0] = 1.0
        params = {"layers.0.w": w, "layers.0.b": np.zeros(2)}
        x = np.arange(30, dtype=float).reshape(2, 3, 5)
        out = forward(x, params, cfg)
        np.testing.assert_array_equal(out[:, 0], x[:, 2])
        np.testing.assert_array_equal(out[:, 1], x[:, 0])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(42)
        cfg = default_adapter_config(8, 64, out_timesteps=16)
        params = init_adapter_params(cfg, rng)
        x = rng.normal(size=(2, 8, 64))
        out = forward(x, params, cfg)
        assert out.shape == (2, 23, 16)
        for i in range(2):
            np.testing.assert_allclose(out[i], naive_forward(x[i], params, cfg),
                                       atol=1e-10)

    def test_shape_contract_over_random_configs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            e = int(rng.integers(1, 12))
            out_ch = int(rng.integers(1, 30))
            k = int(rng.integers(1, 9))
            stride = int(rng.integers(1, 4))
            t_out = int(rng.integers(1, 20))
            t_in = k + stride * (t_out - 1)
            cfg = AdapterConfig(
                in_channels=e, in_timesteps=t_in, out_channels=out_ch,
                out_timesteps=t_out, layers=(ConvLayerSpec(out_ch, k, stride),),
            )
            params = init_adapter_params(cfg, rng)
            out = forward(rng.normal(size=(2, e, t_in)), params, cfg)
            assert out.shape == (2, out_ch, t_out)

    def test_shape_mismatch_rejected(self):
        cfg = default_adapter_config(4, 40, out_timesteps=16)
        params = init_adapter_params(cfg, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            forward(np.zeros((1, 5, 40)), params, cfg)
        with pytest.raises(DimensionError):
            forward(np.zeros((4, 40)), params, cfg)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        cfg = default_adapter_config(6, 48, out_timesteps=16)
        params = init_adapter_params(cfg, rng)
        x = rng.normal(size=(2, 6, 48))
        a = forward(x, params, cfg)
        b = forward(x, params, cfg)
        np.testing.assert_array_equal(a, b)


class TestGradients:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.cfg = default_adapter_config(5, 36, out_timesteps=8)
        self.params = init_adapter_params(self.cfg, rng)
        self.x = rng.normal(size=(1, 5, 36))
        self.upstream = rng.normal(size=(1, 23, 8))

    def test_zero_upstream_zero_gradients(self):
        grads = forward_backward(self.x, self.params, self.cfg,
                                 np.zeros((1, 23, 8)))
        dx = input_gradient(self.x, self.params, self.cfg, np.zeros((1, 23, 8)))
        assert np.all(dx == 0)
        for g in grads.values():
            assert np.all(g == 0)

    def test_upstream_linearity(self):
        grads = forward_backward(self.x, self.params, self.cfg, self.upstream)
        grads2 = forward_backward(self.x, self.params, self.cfg,
                                  2.0 * self.upstream)
        dx = input_gradient(self.x, self.params, self.cfg, self.upstream)
        dx2 = input_gradient(self.x, self.params, self.cfg, 2.0 * self.upstream)
        np.testing.assert_allclose(dx2, 2.0 * dx, rtol=1e-12)
        for name in grads:
            np.testing.assert_allclose(grads2[name], 2.0 * grads[name], rtol=1e-12)

    def test_matches_finite_differences(self):
        h = 1e-5
        rng = np.random.default_rng(3)

        def objective():
            return float(np.sum(forward(self.x, self.params, self.cfg)
                                * self.upstream))

        grads = forward_backward(self.x, self.params, self.cfg, self.upstream)
        dx = input_gradient(self.x, self.params, self.cfg, self.upstream)
        worst = 0.0
        for name, arr in self.params.items():
            flat = arr.reshape(-1)
            picks = rng.choice(flat.size, size=min(25, flat.size), replace=False)
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
        flat_x = self.x.reshape(-1)
        for idx in rng.choice(flat_x.size, size=40, replace=False):
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

    def test_upstream_shape_checked(self):
        with pytest.raises(DimensionError):
            forward_backward(self.x, self.params, self.cfg, np.zeros((1, 23, 9)))
