"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Thresholds and time budgets are pinned here; nothing is
deferred to later calibration.
"""

import time

import numpy as np
import pytest

from conftest import AdapterOnlyClassifier
from eegadapt.adapter import default_adapter_config
from eegadapt.cli import main as cli_main
from eegadapt.encoder import BfmConfig
from eegadapt.filters import apply_chain_to_rows, design_bandpass, design_notch
from eegadapt.manifest import DatasetManifest, ManifestEntry, split_subject_independent
from eegadapt.model import build_classifier
from eegadapt.montage import builtin_montage, mix_channels
from eegadapt.pipeline import FilterSettings, align_window_set, preprocess_manifest
from eegadapt.synthetic import SynthSpec, synthetic_montage, write_synthetic_dataset
from eegadapt.training import (
    LabeledSet,
    TrainConfig,
    cross_entropy_batch,
    evaluate,
    metrics_from_confusion,
    train_loop,
)
from eegadapt.zeroshot import ZeroShotProtocol, run_zeroshot, subject_aggregate
from helpers import generate_arrays, gradient_check
from test_montage import EXPECTED_SOURCES, all_source_labels


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def synth_pipeline(tmp_path_factory):
    """The 4-class acceptance dataset, filtered and windowed once."""
    root = tmp_path_factory.mktemp("acceptance-data")
    spec = SynthSpec(num_classes=4, channels=16, timesteps=256,
                     counts=(800, 200, 200), subjects=(8, 2, 2), seed=0)
    manifest_path = write_synthetic_dataset(root, spec)
    from eegadapt.manifest import load_manifest

    manifest = load_manifest(manifest_path)
    wset = preprocess_manifest(manifest, FilterSettings(), 256)
    return root, manifest, wset


def test_c01_montage_exactness():
    start = time.monotonic()
    montage = builtin_montage()
    table_ok = all(
        list(target.sources) == EXPECTED_SOURCES[target.target_label]
        for target in montage.targets
    ) and len(montage.targets) == 23

    labels = all_source_labels()
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4, len(labels), 100))
    row = {lab: i for i, lab in enumerate(labels)}
    selected = mix_channels(data, labels, montage.first_sources(), 100)
    select_ok = all(
        np.array_equal(selected[:, i], data[:, row[t.sources[0]]])
        for i, t in enumerate(montage.targets)
    )
    mixed = mix_channels(data, labels, montage, 100)
    mix_ok = True
    for i, target in enumerate(montage.targets):
        offset = 0
        for src in target.sources:
            mix_ok &= np.array_equal(
                mixed[:, i, offset : offset + 20], data[:, row[src], :20]
            )
            offset += 20
    elapsed = time.monotonic() - start
    report("1", table_ok and select_ok and mix_ok and elapsed < 1.0,
           f"23 targets reproduced exactly, select+mix verified in {elapsed:.2f}s")


def test_c02_filter_suite():
    start = time.monotonic()

    def ratio(chain, freq, fs, n=4000):
        k = int(round(freq * n / fs))
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * freq * t)
        y = apply_chain_to_rows(chain, x[None, :])[0]
        return np.abs(np.fft.rfft(y))[k] / np.abs(np.fft.rfft(x))[k]

    worst_notch_db = np.inf
    worst_tone_db = 0.0
    worst_dc = 0.0
    for fs in (200.0, 250.0, 500.0):
        notch = design_notch(50.0, fs, 30.0)
        band = design_bandpass(0.1, 75.0, 4, fs)
        worst_notch_db = min(worst_notch_db,
                             -20.0 * np.log10(max(ratio(notch, 50.0, fs), 1e-15)))
        dc = apply_chain_to_rows(band, np.full((1, 4000), 10.0))[0]
        worst_dc = max(worst_dc, np.mean(np.abs(dc[2000:])) / 10.0)
        for tone in (10.0, 20.0):
            both = min(ratio(notch, tone, fs), ratio(band, tone, fs))
            worst_tone_db = max(worst_tone_db, abs(20.0 * np.log10(both)))
    elapsed = time.monotonic() - start
    ok = worst_notch_db >= 30.0 and worst_dc <= 0.01 and worst_tone_db <= 1.0
    report("2", ok and elapsed < 10.0,
           f"notch >= {worst_notch_db:.1f} dB, DC residue {worst_dc:.2e}, "
           f"tone deviation {worst_tone_db:.3f} dB in {elapsed:.1f}s")


def test_c03_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1)

    adapter_model = AdapterOnlyClassifier(in_channels=5, in_timesteps=40,
                                          num_classes=4, out_timesteps=12,
                                          seed=1)
    rep_a = gradient_check(adapter_model, rng.normal(size=(1, 5, 40)), [2],
                           num_coordinates=220, seed=3)

    acfg = default_adapter_config(6, 48, out_timesteps=16)
    bcfg = BfmConfig(num_channels=23, num_classes=4, patch_len=8,
                     embed_dim=16, num_layers=2, num_heads=4,
                     channel_vocab=23, max_patches=2)
    full_model = build_classifier(bcfg, acfg, seed=5)
    full_model.encoder["head_w"][:] = rng.normal(
        0, 0.3, full_model.encoder["head_w"].shape)
    rep_b = gradient_check(full_model, rng.normal(size=(1, 6, 48)), [1],
                           num_coordinates=220, seed=7)
    elapsed = time.monotonic() - start
    ok = (rep_a.coordinates_checked >= 200 and rep_b.coordinates_checked >= 200
          and rep_a.max_rel_error <= 1e-4 and rep_b.max_rel_error <= 1e-4)
    report("3", ok and elapsed < 120.0,
           f"adapter max rel {rep_a.max_rel_error:.2e}, adapter+encoder "
           f"max rel {rep_b.max_rel_error:.2e} over 220 coords each "
           f"in {elapsed:.1f}s")


def test_c04_initial_loss_sanity():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    deviations = []
    for k in (4, 40):
        cfg = BfmConfig(num_channels=8, num_classes=k, patch_len=16,
                        embed_dim=32, num_layers=2, num_heads=4,
                        channel_vocab=23, max_patches=4)
        model = build_classifier(cfg, None, seed=9)
        x = rng.normal(size=(32, 8, 64))
        labels = rng.integers(0, k, size=32)
        logits, _ = model.forward_batch(x)
        loss, _ = cross_entropy_batch(logits, labels)
        deviations.append(abs(loss - np.log(k)))
    elapsed = time.monotonic() - start
    ok = all(d <= 0.05 for d in deviations)
    report("4", ok and elapsed < 10.0,
           f"|loss - ln K| = {deviations[0]:.2e} (K=4), "
           f"{deviations[1]:.2e} (K=40) in {elapsed:.1f}s")


def test_c05_end_to_end_learning(synth_pipeline):
    root, manifest, wset = synth_pipeline
    start = time.monotonic()

    # Adapter mode.
    acfg = default_adapter_config(16, 256, out_timesteps=112)
    bcfg = BfmConfig(num_channels=23, num_classes=4, patch_len=16,
                     embed_dim=32, num_layers=2, num_heads=4,
                     channel_vocab=23, max_patches=7)
    model = build_classifier(bcfg, acfg, seed=0)
    train_loop(model, wset.select("train"), wset.select("val"),
               TrainConfig(epochs=4, batch_size=32, seed=0))
    adapter_acc = evaluate(model, wset.select("test")).accuracy

    # Mix mode through the synthetic montage map.
    montage = synthetic_montage(16)
    aligned = align_window_set(wset, "mix", montage, 112)
    mix_model = build_classifier(bcfg, None, seed=0)
    train_loop(mix_model, aligned.select("train"), aligned.select("val"),
               TrainConfig(epochs=5, batch_size=32, seed=0))
    mix_acc = evaluate(mix_model, aligned.select("test")).accuracy

    elapsed = time.monotonic() - start
    ok = adapter_acc >= 0.95 and mix_acc >= 0.90
    report("5", ok and elapsed < 300.0,
           f"adapter test accuracy {adapter_acc:.4f} (>= 0.95), mix "
           f"{mix_acc:.4f} (>= 0.90), both within 30 epochs in {elapsed:.0f}s")


def test_c06_mode_parity(synth_pipeline):
    root, manifest, wset = synth_pipeline
    start = time.monotonic()
    montage = synthetic_montage(16)
    rng = np.random.default_rng(3)

    def small(split, source):
        idx = rng.permutation(len(source.select(split)))[:96]
        full = source.select(split)
        return LabeledSet(x=full.x[idx], y=full.y[idx],
                          subjects=[full.subjects[i] for i in idx])

    shapes = {}
    for mode in ("select", "mix", "raw", "adapter"):
        acfg = None
        if mode == "adapter":
            data = wset
            acfg = default_adapter_config(16, 256, out_timesteps=112)
            cfg = BfmConfig(num_channels=23, num_classes=4, patch_len=16,
                            embed_dim=16, num_layers=1, num_heads=2,
                            channel_vocab=23, max_patches=7)
        elif mode == "raw":
            data = wset
            cfg = BfmConfig(num_channels=16, num_classes=4, patch_len=16,
                            embed_dim=16, num_layers=1, num_heads=2,
                            channel_vocab=128, max_patches=16)
        else:
            data = align_window_set(wset, mode, montage, 112)
            cfg = BfmConfig(num_channels=23, num_classes=4, patch_len=16,
                            embed_dim=16, num_layers=1, num_heads=2,
                            channel_vocab=23, max_patches=7)
        model = build_classifier(cfg, acfg, seed=0)
        train_loop(model, small("train", data), small("val", data),
                   TrainConfig(epochs=1, batch_size=32, seed=0))
        rep = evaluate(model, small("test", data))
        logits, _ = model.forward_batch(data.select("test").x[:4])
        shapes[mode] = logits.shape
        assert rep.confusion.shape == (4, 4)
    elapsed = time.monotonic() - start
    ok = len({s for s in shapes.values()}) == 1
    report("6", ok and elapsed < 120.0,
           f"select/mix/raw/adapter all trained and evaluated, logits "
           f"{shapes['adapter']} in every mode, {elapsed:.0f}s")


def test_c07_zeroshot_protocol():
    start = time.monotonic()
    spec = SynthSpec(num_classes=6, channels=16, timesteps=256,
                     counts=(600, 150, 150), subjects=(6, 2, 2), seed=1)
    data = generate_arrays(spec)

    def subset(split, classes):
        x, y, subs = data[split]
        mask = np.isin(y, classes)
        remap = {c: i for i, c in enumerate(sorted(classes))}
        return LabeledSet(
            x=x[mask],
            y=np.array([remap[v] for v in y[mask]], dtype=np.int64),
            subjects=[s for s, m in zip(subs, mask) if m],
        )

    acfg = default_adapter_config(16, 256, out_timesteps=112)
    bcfg = BfmConfig(num_channels=23, num_classes=4, patch_len=16,
                     embed_dim=32, num_layers=2, num_heads=4,
                     channel_vocab=23, max_patches=7)
    model = build_classifier(bcfg, acfg, seed=0)
    train_loop(model, subset("train", [0, 1, 2, 3]),
               subset("val", [0, 1, 2, 3]),
               TrainConfig(epochs=5, batch_size=32, seed=0))

    xs, ys = [], []
    for split in ("train", "val", "test"):
        x, y, _ = data[split]
        mask = np.isin(y, [4, 5])
        xs.append(x[mask])
        ys.append(y[mask])
    x_held = np.concatenate(xs)
    y_held = np.concatenate(ys)
    emb = model.embed_batch(x_held)
    protocol = ZeroShotProtocol(held_out_classes=frozenset([4, 5]),
                                fit_fraction=0.5, seed=0)
    result = run_zeroshot(emb, y_held, protocol, knn_k=5)
    rng = np.random.default_rng(0)
    control = run_zeroshot(emb, rng.permutation(y_held), protocol, knn_k=5)
    elapsed = time.monotonic() - start
    ok = (result["svm"] >= 0.90 and result["knn"] >= 0.85
          and result["kmeans"] >= 0.80
          and all(abs(a - 0.5) <= 0.1 for a in control.values()))
    report("7", ok and elapsed < 180.0,
           f"svm {result['svm']:.3f}, knn {result['knn']:.3f}, kmeans "
           f"{result['kmeans']:.3f}; permuted control "
           f"{[round(v, 3) for v in control.values()]} in {elapsed:.0f}s")


def test_c08_subject_independence():
    start = time.monotonic()
    entries = [
        ManifestEntry(path=f"r{i}.raw", format="f32-binary",
                       channel_labels=["a"], sample_rate_hz=100.0,
                       label="x", subject_id=f"s{i % 11:02d}",
                       split="unassigned")
        for i in range(44)
    ]
    manifest = DatasetManifest(classes={"x": 0}, recordings=entries)
    disjoint = True
    for seed in range(100):
        split = split_subject_independent(manifest, (0.6, 0.2, 0.2), seed=seed)
        seen: dict[str, str] = {}
        for entry in split.recordings:
            if entry.subject_id in seen:
                disjoint &= seen[entry.subject_id] == entry.split
            seen[entry.subject_id] = entry.split

    # Constructed cohort: 10 subjects, 10 samples each, 8 of 10 correct.
    rng = np.random.default_rng(4)
    subjects, preds, probs, truth = [], [], [], []
    for s in range(10):
        true_label = s % 3
        wrong_positions = set(rng.permutation(10)[:2].tolist())
        for i in range(10):
            subjects.append(f"s{s:02d}")
            truth.append(true_label)
            pred = ((true_label + 1) % 3 if i in wrong_positions else true_label)
            preds.append(pred)
            p = np.full(3, 0.1)
            p[pred] = 0.8
            probs.append(p)
    sample_acc = float(np.mean(np.array(preds) == np.array(truth)))
    _, subject_report = subject_aggregate(subjects, np.array(preds),
                                          np.array(probs), np.array(truth))
    elapsed = time.monotonic() - start
    ok = disjoint and subject_report.accuracy >= sample_acc
    report("8", ok,
           f"100 seeds subject-disjoint; subject accuracy "
           f"{subject_report.accuracy:.3f} >= sample accuracy {sample_acc:.3f} "
           f"in {elapsed:.1f}s")


def test_c09_determinism(tmp_path, monkeypatch):
    start = time.monotonic()
    data_dir = tmp_path / "d"
    rc = cli_main([
        "synth", "--out", str(data_dir), "--classes", "3", "--channels", "6",
        "--timesteps", "64", "--fs", "200", "--train", "36", "--val", "12",
        "--test", "12", "--train-subjects", "3", "--val-subjects", "2",
        "--test-subjects", "2", "--seed", "5",
    ])
    assert rc == 0
    outputs = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        rc = cli_main([
            "train", "--manifest", str(data_dir / "manifest.json"),
            "--mode", "raw", "--window", "64", "--epochs", "2",
            "--batch", "12", "--seed", "1", "--embed-dim", "16",
            "--encoder-layers", "1", "--heads", "2", "--patch-len", "16",
            "--out-checkpoint", "model.ckpt",
        ])
        assert rc == 0
        outputs.append((
            (workdir / "model.ckpt.log.csv").read_bytes(),
            (workdir / "model.ckpt.metrics.txt").read_bytes(),
            (workdir / "model.ckpt").read_bytes(),
        ))
    elapsed = time.monotonic() - start
    ok = outputs[0] == outputs[1]
    report("9", ok,
           f"two identical-flag runs produced byte-identical epoch logs, "
           f"metric reports, and checkpoints in {elapsed:.0f}s")


def test_c10_metrics_oracle():
    start = time.monotonic()
    rep = metrics_from_confusion(np.array([[3, 1], [2, 4]]))
    # Hand computation: support (4, 6); precision (3/5, 4/5); recall
    # (3/4, 4/6); f1 (2/3, 8/11); weighted by (0.4, 0.6).
    expected = {
        "accuracy": 0.7,
        "precision": 0.4 * (3 / 5) + 0.6 * (4 / 5),
        "recall": 0.4 * (3 / 4) + 0.6 * (4 / 6),
        "f1": 0.4 * (2 / 3) + 0.6 * (8 / 11),
    }
    deviation = max(
        abs(rep.accuracy - expected["accuracy"]),
        abs(rep.precision - expected["precision"]),
        abs(rep.recall - expected["recall"]),
        abs(rep.f1 - expected["f1"]),
    )
    elapsed = time.monotonic() - start
    ok = abs(rep.accuracy - 0.70) <= 1e-12 and deviation <= 1e-12
    report("10", ok,
           f"accuracy 0.70, weighted P/R/F1 match the hand oracle to "
           f"{deviation:.1e} in {elapsed:.2f}s")
