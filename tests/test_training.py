"""Cross entropy, the training loop, metrics, and gradient verification."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import AdapterOnlyClassifier, StubModel
from eegadapt.adapter import default_adapter_config
from eegadapt.encoder import BfmConfig
from eegadapt.errors import ConfigurationError, DomainError
from eegadapt.model import build_classifier
from eegadapt.synthetic import SynthSpec, write_synthetic_dataset
from eegadapt import training
from eegadapt.training import (
    LabeledSet,
    TrainConfig,
    cross_entropy_batch,
    evaluate,
    metrics_from_confusion,
    train_loop,
)
from helpers import force_forward_chunk, gradient_check


def cross_entropy(logits, label):
    """Loss and logit gradient of one sample, as a batch of one."""
    loss, grad = cross_entropy_batch(np.asarray(logits)[None], [label])
    return loss, grad[0]


class TestCrossEntropy:
    def test_uniform_logits_forty_classes(self):
        loss, grad = cross_entropy_batch(np.zeros((3, 40)), [0, 7, 39])
        assert abs(loss - np.log(40)) < 1e-12
        np.testing.assert_allclose(grad[0, 1:], 1.0 / 120.0, atol=1e-12)

    def test_saturated_correct_logit(self):
        logits = np.zeros((2, 5))
        logits[:, 3] = 1e4
        loss, _ = cross_entropy_batch(logits, [3, 3])
        assert loss <= 1e-6

    def test_matches_direct_softmax_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=7) * 3.0
        label = 4
        loss, grad = cross_entropy(logits, label)
        probs = np.exp(logits) / np.sum(np.exp(logits))
        expected_loss = -np.log(probs[label])
        expected_grad = probs.copy()
        expected_grad[label] -= 1.0
        assert abs(loss - expected_loss) <= 1e-12
        np.testing.assert_allclose(grad, expected_grad, atol=1e-12)
        assert abs(grad.sum()) <= 1e-12

    def test_gradient_components_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            _, grad = cross_entropy(rng.normal(size=k) * 5.0, int(rng.integers(k)))
            assert abs(grad.sum()) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            cross_entropy_batch(np.zeros((2, 4)), [0, 4])
        with pytest.raises(DomainError):
            cross_entropy_batch(np.zeros((2, 4)), [-1, 0])

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        batch_loss, batch_grad = cross_entropy_batch(logits, labels)
        per = [cross_entropy(logits[i], int(labels[i])) for i in range(6)]
        assert abs(batch_loss - np.mean([p[0] for p in per])) <= 1e-12
        for i in range(6):
            np.testing.assert_allclose(batch_grad[i], per[i][1] / 6.0, atol=1e-12)

    def test_argmax_invariant_to_constant_shift(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(20, 6))
        shifted = logits + rng.normal(size=(20, 1)) * 10.0
        np.testing.assert_array_equal(np.argmax(logits, axis=1),
                                      np.argmax(shifted, axis=1))


def tiny_model(num_classes=3, seed=0, adapter_timesteps=None):
    """Encoder over 4 channels x 16 steps, behind an adapter from
    ``adapter_timesteps`` steps when given."""
    cfg = BfmConfig(num_channels=4, num_classes=num_classes, patch_len=8,
                    embed_dim=16, num_layers=1, num_heads=2,
                    channel_vocab=4, max_patches=2)
    acfg = None if adapter_timesteps is None else default_adapter_config(
        4, adapter_timesteps, out_channels=4, out_timesteps=16, hidden_maps=8)
    return build_classifier(cfg, acfg, seed=seed)


def tiny_set(n, num_classes=3, seed=0, channels=4, timesteps=16):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % num_classes
    x = rng.normal(size=(n, channels, timesteps)) + y[:, None, None]
    return LabeledSet(x=x, y=y, subjects=[f"s{i % 3}" for i in range(n)])


class TestTrainLoop:
    def test_zero_learning_rate_is_a_null_update(self):
        model = tiny_model()
        before = {n: p.copy() for n, p in model.named_arrays()}
        data = tiny_set(12)
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=1)
        train_loop(model, data, tiny_set(6, seed=5), cfg)
        for name, p in model.named_arrays():
            np.testing.assert_array_equal(p, before[name])

    def test_single_sample_memorization(self):
        model = tiny_model(num_classes=2)
        data = tiny_set(1, num_classes=2, seed=7)
        cfg = TrainConfig(epochs=200, batch_size=1, learning_rate=1e-2, seed=0)
        result = train_loop(model, data, data, cfg)
        assert result.epochs[-1].train_loss < 1e-3

    def test_same_seed_identical_traces(self):
        def run():
            model = tiny_model(seed=4)
            cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=9)
            return train_loop(model, tiny_set(24, seed=2), tiny_set(9, seed=3), cfg)

        a, b = run(), run()
        assert a.epochs == b.epochs
        assert a.best_epoch == b.best_epoch

    def test_empty_split_rejected(self):
        model = tiny_model()
        with pytest.raises(ConfigurationError):
            train_loop(model, tiny_set(0), tiny_set(4),
                       TrainConfig(epochs=1, batch_size=2))

    def test_label_range_validated(self):
        model = tiny_model(num_classes=2)
        bad = tiny_set(6, num_classes=3)
        with pytest.raises(ConfigurationError):
            train_loop(model, bad, bad, TrainConfig(epochs=1, batch_size=2))

    def test_replaced_cross_entropy_sees_the_first_step_at_ln_k(
            self, monkeypatch, workers):
        # train_loop looks cross_entropy_batch up at every step, so a probe
        # put in its place on the module sees the losses of the chunks the
        # pool runs: four chunks of two make the one step, then validation.
        workers(2)
        original, seen = training.cross_entropy_batch, []

        def probe(logits, labels):
            loss, grad = original(logits, labels)
            seen.append(loss)
            return loss, grad

        monkeypatch.setattr(training, "cross_entropy_batch", probe)
        model = tiny_model(num_classes=4)
        force_forward_chunk(monkeypatch, 2, model.encoder_config)
        train_loop(model, tiny_set(8, num_classes=4), tiny_set(4, num_classes=4),
                   TrainConfig(epochs=1, batch_size=8, seed=0))
        assert len(seen) == 5
        assert all(abs(loss - np.log(4)) <= 1e-12 for loss in seen[:4])

    @pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
    @pytest.mark.parametrize("timesteps", [None, 24], ids=["no-adapter", "adapter"])
    def test_freeze_bfm_keeps_encoder_body_fixed(self, optimizer, timesteps):
        # The body gets no gradients, so no step touches it: weight decay
        # would move it if the optimizer held it.
        model = tiny_model(adapter_timesteps=timesteps)
        before = {n: p.copy() for n, p in model.named_arrays()}
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2,
                          optimizer=optimizer, seed=0, freeze_bfm=True)
        t = timesteps or 16
        train_loop(model, tiny_set(12, timesteps=t),
                   tiny_set(6, seed=5, timesteps=t), cfg)
        for name, p in model.named_arrays():
            if name.startswith(("encoder.head_", "adapter.")):
                assert not np.array_equal(p, before[name]), name
            else:
                np.testing.assert_array_equal(p, before[name])

    def test_initial_loss_is_log_num_classes(self, synth4):
        # Zero-initialized head puts the first forward exactly at ln K.
        for k in (4, 40):
            cfg = BfmConfig(num_channels=8, num_classes=k, patch_len=16,
                            embed_dim=32, num_layers=2, num_heads=4,
                            channel_vocab=23, max_patches=8)
            model = build_classifier(cfg, None, seed=11)
            x, y, _ = synth4["train"]
            labels = np.minimum(y, k - 1)
            logits, _ = model.forward_batch(x[:32])
            loss, _ = cross_entropy_batch(logits, labels[:32])
            assert abs(loss - np.log(k)) <= 0.05


class TestOptimizers:
    """One step at t = 1, where the cosine schedule gives lr_t = lr, against
    the closed-form update; ``c`` has no gradient and must not move."""

    lr, wd = 0.05, 0.1

    def arrays_and_grads(self):
        rng = np.random.default_rng(0)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5),
                  "c": rng.normal(size=2)}
        grads = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        return arrays, {n: p.copy() for n, p in arrays.items()}, grads

    def check(self, arrays, before, grads, direction):
        for name, g in grads.items():
            p = before[name]
            expected = p - self.lr * (direction(g) + self.wd * p)
            assert arrays[name].tobytes() == expected.tobytes(), name
        assert arrays["c"].tobytes() == before["c"].tobytes()

    def test_sgd_step_is_the_closed_form(self):
        arrays, before, grads = self.arrays_and_grads()
        training.Sgd(arrays, lr=self.lr, weight_decay=self.wd,
                     total_steps=10).step(grads)
        self.check(arrays, before, grads, lambda g: g)

    def test_adamw_step_is_the_closed_form(self):
        arrays, before, grads = self.arrays_and_grads()
        opt = training.AdamW(arrays, lr=self.lr, weight_decay=self.wd,
                             total_steps=10)
        opt.step(grads)

        def adam(g):
            m, v = (1.0 - 0.9) * g, (1.0 - 0.999) * g * g
            return (m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)

        self.check(arrays, before, grads, adam)
        # The moments live from the first step on: later steps update them
        # in place, and an array without gradients never gets any.
        moments = dict(opt.state)
        opt.step(grads)
        assert sorted(opt.state) == ["a", "b"]
        for name, (m, v) in opt.state.items():
            assert m is moments[name][0] and v is moments[name][1]


def weighted_metrics_oracle(conf):
    """Exact-fraction weighted metrics for a confusion matrix."""
    conf = [[Fraction(v) for v in row] for row in conf]
    k = len(conf)
    total = sum(sum(row) for row in conf)
    support = [sum(conf[i]) for i in range(k)]
    predicted = [sum(conf[i][j] for i in range(k)) for j in range(k)]
    acc = sum(conf[i][i] for i in range(k)) / total
    precision = recall = f1 = Fraction(0)
    for c in range(k):
        p = conf[c][c] / predicted[c] if predicted[c] else Fraction(0)
        r = conf[c][c] / support[c] if support[c] else Fraction(0)
        f = 2 * p * r / (p + r) if p + r else Fraction(0)
        w = support[c] / total
        precision += w * p
        recall += w * r
        f1 += w * f
    return float(acc), float(precision), float(recall), float(f1)


class TestMetrics:
    def test_fixed_confusion_matrix_oracle(self):
        conf = np.array([[3, 1], [2, 4]])
        report = metrics_from_confusion(conf)
        acc, precision, recall, f1 = weighted_metrics_oracle(conf)
        assert abs(report.accuracy - 0.70) <= 1e-12
        assert abs(report.accuracy - acc) <= 1e-12
        assert abs(report.precision - precision) <= 1e-12
        assert abs(report.recall - recall) <= 1e-12
        assert abs(report.f1 - f1) <= 1e-12

    def test_random_confusions_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            conf = rng.integers(0, 9, size=(k, k))
            if conf.sum() == 0:
                conf[0, 0] = 1
            report = metrics_from_confusion(conf)
            acc, precision, recall, f1 = weighted_metrics_oracle(conf)
            assert abs(report.accuracy - acc) <= 1e-12
            assert abs(report.precision - precision) <= 1e-12
            assert abs(report.recall - recall) <= 1e-12
            assert abs(report.f1 - f1) <= 1e-12

    def test_perfect_predictions(self):
        report = metrics_from_confusion(np.diag([4, 7, 2]))
        assert report.accuracy == report.precision == report.recall == report.f1 == 1.0

    def test_constant_predictor_on_balanced_classes(self):
        # Ten samples per class, everything predicted as class 0.
        ids = np.arange(20)
        truth = np.repeat([0, 1], 10)
        logit_table = np.zeros((20, 2))
        logit_table[:, 0] = 1.0
        model = StubModel(logit_table)
        x = np.zeros((20, 1, 1))
        x[:, 0, 0] = ids
        report = evaluate(model, LabeledSet(x=x, y=truth))
        assert report.accuracy == 0.5

    def test_accuracy_matches_one_pass_counter(self):
        rng = np.random.default_rng(6)
        n, k = 50, 4
        logit_table = rng.normal(size=(n, k))
        truth = rng.integers(0, k, size=n)
        model = StubModel(logit_table)
        x = np.zeros((n, 1, 1))
        x[:, 0, 0] = np.arange(n)
        report = evaluate(model, LabeledSet(x=x, y=truth))
        hits = 0
        for i in range(n):
            if int(np.argmax(logit_table[i])) == truth[i]:
                hits += 1
        assert report.accuracy == hits / n


class TestGradientCheck:
    def test_adapter_only_model(self):
        model = AdapterOnlyClassifier(in_channels=5, in_timesteps=40,
                                      num_classes=4, out_timesteps=12, seed=1)
        x = np.random.default_rng(2).normal(size=(1, 5, 40))
        report = gradient_check(model, x, [2], num_coordinates=200, seed=3)
        assert report.coordinates_checked >= 200 or \
            report.coordinates_checked == sum(p.size for _, p in model.named_arrays())
        assert report.max_rel_error <= 1e-4

    def test_adapter_plus_encoder_model(self):
        acfg = default_adapter_config(6, 48, out_timesteps=16)
        bcfg = BfmConfig(num_channels=23, num_classes=4, patch_len=8,
                         embed_dim=16, num_layers=2, num_heads=4,
                         channel_vocab=23, max_patches=2)
        model = build_classifier(bcfg, acfg, seed=5)
        rng = np.random.default_rng(6)
        model.encoder["head_w"][:] = rng.normal(0, 0.3, model.encoder["head_w"].shape)
        x = rng.normal(size=(1, 6, 48))
        report = gradient_check(model, x, [1], num_coordinates=220, seed=7)
        assert report.max_rel_error <= 1e-4

    # Chunks of 3: N = 7 makes chunks of three and four (a last sample joins
    # the chunk before it), N = 8 makes chunks of three, three and two.
    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("mode", ["adapter", "mix", "raw"])
    def test_summed_chunk_gradients(self, monkeypatch, mode, n):
        channels = {"adapter": 23, "mix": 23, "raw": 10}[mode]
        cfg = BfmConfig(num_channels=channels, num_classes=4, patch_len=8,
                        embed_dim=12, num_layers=2, num_heads=3,
                        channel_vocab=128 if mode == "raw" else 23,
                        max_patches=2)
        acfg = default_adapter_config(6, 48, out_timesteps=16) \
            if mode == "adapter" else None
        model = build_classifier(cfg, acfg, seed=n)
        rng = np.random.default_rng(n)
        model.encoder["head_w"][:] = rng.normal(0, 0.3, model.encoder["head_w"].shape)
        force_forward_chunk(monkeypatch, 3, cfg)
        x = rng.normal(size=(n, 6, 48) if acfg else (n, channels, 16))
        report = gradient_check(model, x, rng.integers(0, 4, size=n),
                                num_coordinates=200, seed=n)
        assert report.coordinates_checked == 200
        assert report.max_rel_error <= 1e-4

    def test_zero_parameter_model_passes_vacuously(self):
        model = StubModel(np.zeros((4, 2)))
        report = gradient_check(model, np.zeros((1, 1, 1)), [0])
        assert report.coordinates_checked == 0
        assert report.max_rel_error == 0.0


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The README's "Library use" block, on a synthetic manifest of the shape
    # it builds the model for: 16 channels x 256 steps, 4 classes, and 8/4/4
    # recordings of one window each.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    write_synthetic_dataset(tmp_path / "data", SynthSpec(counts=(8, 4, 4)))
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    shape, accuracy, head_shape, adapter_shape = capsys.readouterr().out.splitlines()
    assert shape == "(16, 23, 112)"
    assert 0.0 <= float(accuracy) <= 1.0
    assert head_shape == "(32, 4)"
    assert adapter_shape.startswith("(64, 16, ")
