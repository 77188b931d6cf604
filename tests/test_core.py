"""Recording loading and unit conversion, length fitting, and windowing."""

import json

import numpy as np
import pytest

from eegadapt.core import extract_windows
from eegadapt.errors import DimensionError, DomainError, ManifestError
from eegadapt.fileio import write_recording_binary
from eegadapt.manifest import load_manifest, load_recording
from eegadapt.montage import TARGET_ORDER, MontageMap, MontageTarget, mix_channels
from eegadapt.pipeline import FilterSettings, preprocess_manifest


def one_entry_manifest(tmp_path, data, resolution=None, channel_labels=None,
                       sample_rate_hz=100.0, label="first", subject="s00"):
    """Write ``data`` as a binary recording listed by a one-entry manifest."""
    data = np.asarray(data, dtype=np.float64)
    write_recording_binary(tmp_path / "r.raw", data)
    entry = {
        "path": "r.raw", "format": "f32-binary",
        "channel_labels": channel_labels or [f"e{i}" for i in range(len(data))],
        "sample_rate_hz": sample_rate_hz, "label": label, "subject_id": subject,
        "split": "train",
    }
    if resolution is not None:
        entry["resolution"] = [float(v) for v in resolution]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"classes": {"first": 0, "second": 1},
                                "recordings": [entry]}))
    return path


def load_one(tmp_path, data, **entry):
    """The microvolt matrix load_recording returns for a one-entry manifest."""
    manifest = load_manifest(one_entry_manifest(tmp_path, data, **entry))
    return load_recording(manifest.recordings[0], manifest.base_dir)


class TestQuantizedToMicrovolts:
    def test_zero_counts_give_zero_volts(self, tmp_path):
        out = load_one(tmp_path, np.zeros((2, 5)), resolution=[0.3, 2.0])
        assert np.all(out == 0.0)

    def test_direct_multiplication(self, tmp_path):
        out = load_one(tmp_path, [[2, -4]], resolution=[0.5])
        np.testing.assert_array_equal(out, [[1.0, -2.0]])

    def test_matches_scalar_loop_oracle(self, tmp_path):
        rng = np.random.default_rng(42)
        counts = rng.integers(-500, 500, size=(3, 8))
        resolution = rng.uniform(0.01, 2.0, size=3)
        # Stored values sit a quarter count off, so loading must round them.
        stored = counts + rng.choice([-0.25, 0.25], size=counts.shape)
        out = load_one(tmp_path, stored, resolution=resolution)
        expected = np.empty((3, 8))
        for c in range(3):
            for t in range(8):
                expected[c, t] = resolution[c] * counts[c, t]
        np.testing.assert_allclose(out, expected, rtol=0, atol=0)

    def test_metadata_preserved(self, tmp_path):
        path = one_entry_manifest(tmp_path, np.ones((1, 64)), resolution=[1.5],
                                  channel_labels=["a"], sample_rate_hz=256.0,
                                  label="second", subject="s09")
        wset = preprocess_manifest(load_manifest(path), FilterSettings(), 64)
        assert wset.subjects.tolist() == ["s09"]
        assert wset.labels.tolist() == [1]
        assert wset.sample_rates.tolist() == [256.0]
        assert wset.channel_labels == ["a"]

    def test_linearity_in_resolution(self, tmp_path):
        rng = np.random.default_rng(7)
        counts = rng.integers(-9, 9, size=(2, 6))
        res = rng.uniform(0.1, 1.0, size=2)
        base = load_one(tmp_path, counts, resolution=res)
        doubled = load_one(tmp_path, counts, resolution=2 * res)
        np.testing.assert_allclose(doubled, 2.0 * base)

    def test_resolution_length_mismatch(self, tmp_path):
        with pytest.raises(ManifestError, match="resolution has 1 entries"):
            load_one(tmp_path, np.zeros((2, 3)), resolution=[0.5])

    def test_nonpositive_resolution(self, tmp_path):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ManifestError, match="positive"):
                load_one(tmp_path, np.zeros((1, 3)), resolution=[bad])

    def test_nan_counts_rejected(self, tmp_path):
        # rint(nan) cast to int64 would read as -2**63 counts.
        with pytest.raises(DomainError, match="non-finite"):
            load_one(tmp_path, [[1.0, np.nan]], resolution=[0.5])


def fit_length(signal, target_len):
    """Length fitting as alignment does it: a one-source map over one window
    of one channel, so target row 0 is the signal fitted to target_len."""
    one_source = MontageMap(targets=tuple(
        MontageTarget(lab, ("x",)) for lab in TARGET_ORDER
    ))
    batch = np.asarray(signal, dtype=np.float64).reshape(1, 1, -1)
    return mix_channels(batch, ["x"], one_source, target_len)[0, 0]


class TestFitLength:
    def test_identity_when_lengths_match(self):
        sig = np.array([3.0, 1.0, 4.0, 1.0])
        np.testing.assert_array_equal(fit_length(sig, 4), sig)

    def test_tiling(self):
        np.testing.assert_array_equal(
            fit_length(np.array([1.0, 2.0, 3.0]), 7),
            [1, 2, 3, 1, 2, 3, 1],
        )

    def test_head_trim(self):
        np.testing.assert_array_equal(
            fit_length(np.array([5.0, 6.0, 7.0, 8.0]), 2), [5, 6]
        )

    def test_empty_signal_rejected(self):
        with pytest.raises(DomainError):
            fit_length(np.array([]), 4)

    def test_idempotent_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            t = int(rng.integers(1, 40))
            target = int(rng.integers(1, 40))
            sig = rng.normal(size=t)
            once = fit_length(sig, target)
            twice = fit_length(once, target)
            np.testing.assert_array_equal(once, twice)


class TestExtractWindows:
    def test_window_count_floor(self):
        data = np.random.default_rng(0).normal(size=(4, 1000))
        assert extract_windows(data, 128).shape == (7, 4, 128)

    def test_single_exact_window(self):
        data = np.arange(2 * 128, dtype=float).reshape(2, 128)
        windows = extract_windows(data, 128)
        assert windows.shape == (1, 2, 128)
        np.testing.assert_array_equal(windows[0], data)
        assert not np.shares_memory(windows, data)

    def test_short_recording_gives_nothing(self):
        assert extract_windows(np.zeros((3, 127)), 128).shape == (0, 3, 128)

    def test_windows_inherit_label_and_subject(self, tmp_path):
        # Recording i holds 3 + i windows of 100 samples (plus a remainder).
        entries = []
        for i, (label, subject, split) in enumerate(
                [("first", "s11", "train"), ("second", "s12", "test")]):
            write_recording_binary(tmp_path / f"r{i}.raw", np.zeros((2, 350 + 100 * i)))
            entries.append({
                "path": f"r{i}.raw", "format": "f32-binary",
                "channel_labels": ["a", "b"], "sample_rate_hz": 250.0 + i,
                "label": label, "subject_id": subject, "split": split,
            })
        (tmp_path / "manifest.json").write_text(json.dumps({
            "classes": {"first": 0, "second": 1}, "recordings": entries,
        }))
        wset = preprocess_manifest(load_manifest(tmp_path / "manifest.json"),
                                   FilterSettings(), 100)
        assert wset.data.shape == (7, 2, 100)
        assert wset.labels.tolist() == [0] * 3 + [1] * 4
        assert wset.subjects.tolist() == ["s11"] * 3 + ["s12"] * 4
        assert wset.splits.tolist() == ["train"] * 3 + ["test"] * 4
        assert wset.sample_rates.tolist() == [250.0] * 3 + [251.0] * 4

    def test_concatenation_reproduces_prefix(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            e = int(rng.integers(1, 6))
            t = int(rng.integers(1, 400))
            w = int(rng.integers(1, 50))
            data = rng.normal(size=(e, t))
            windows = extract_windows(data, w)
            count = t // w
            assert windows.shape == (count, e, w)
            if count:
                joined = np.concatenate(list(windows), axis=1)
                np.testing.assert_array_equal(joined, data[:, : count * w])


class TestRecordingInvariants:
    def test_row_label_mismatch(self, tmp_path):
        with pytest.raises(ManifestError, match="2 channels"):
            load_one(tmp_path, np.zeros((2, 3)), channel_labels=["a"])

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            load_one(tmp_path, [[np.nan, 0.0]])

    def test_bad_sample_rate(self, tmp_path):
        for bad in (0.0, -5.0, float("nan"), float("inf")):
            with pytest.raises(ManifestError, match="sample_rate_hz"):
                load_one(tmp_path, np.zeros((1, 3)), sample_rate_hz=bad)

    def test_labels_are_trimmed(self, tmp_path):
        path = one_entry_manifest(tmp_path, np.zeros((1, 3)),
                                  channel_labels=[" Fp1 "])
        assert load_manifest(path).recordings[0].channel_labels == ["Fp1"]

    def test_empty_recording_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            load_one(tmp_path, np.zeros((1, 0)))
