"""File formats, manifests, subject splitting, checkpoints, and window sets."""

import json
import re
import struct
import threading
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import sosfiltfilt

from eegadapt import manifest as manifest_module
from eegadapt import fileio, pipeline
from eegadapt.adapter import default_adapter_config
from eegadapt.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from eegadapt.core import extract_windows
from eegadapt.encoder import BfmConfig
from eegadapt.errors import (
    AlignmentError,
    ConfigurationError,
    DomainError,
    FingerprintMismatchError,
    IntegrityError,
    ManifestError,
)
from eegadapt.fileio import (
    BUNDLE_MAGIC,
    read_bundle,
    read_embeddings_text,
    read_recording_binary,
    read_recording_text,
    write_bundle,
    write_embeddings_text,
    write_recording_binary,
)
from eegadapt.filters import design_bandpass, design_notch
from eegadapt.manifest import (
    load_manifest,
    load_recording,
    split_subject_independent,
)
from eegadapt.model import build_classifier
from eegadapt.montage import TARGET_ORDER, MontageMap, MontageTarget, builtin_montage
from eegadapt.pipeline import (
    FilterSettings,
    WindowSet,
    align_window_set,
    check_fingerprint,
    load_window_set,
    preprocess_manifest,
    save_window_set,
)
from helpers import traced_peak, write_recording_text


class TestRecordingFiles:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 40)).astype(np.float32).astype(np.float64)
        path = tmp_path / "r.raw"
        write_recording_binary(path, data)
        np.testing.assert_array_equal(read_recording_binary(path), data)

    def test_binary_truncation_detected(self, tmp_path):
        path = tmp_path / "r.raw"
        write_recording_binary(path, np.zeros((3, 10)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(IntegrityError):
            read_recording_binary(path)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "r.raw"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(IntegrityError):
            read_recording_binary(path)

    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 7))
        path = tmp_path / "r.csv"
        write_recording_text(path, data)
        np.testing.assert_array_equal(read_recording_text(path), data)


def write_raw_bundle(path, header, payload=b""):
    """A bundle with a valid checksum around an arbitrary JSON header (an
    object to encode, or the header's text)."""
    head = (header if isinstance(header, str) else json.dumps(header)).encode("utf-8")
    body = BUNDLE_MAGIC + struct.pack("<Q", len(head)) + head + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def _spec(**overrides):
    return {"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [1],
                                    **overrides}]}


# CRC-valid headers that used to escape read_bundle as KeyError, TypeError
# or ValueError.
MALFORMED_HEADERS = {
    "no-arrays": {"meta": {}},
    "no-meta": {"arrays": _spec()["arrays"]},
    "list-header": [],
    "negative-dim": _spec(shape=[-1]),
    "object-dtype": _spec(dtype="|O"),
    "unhashable-dtype": _spec(dtype=["<f8"]),
    "non-str-name": _spec(name=3),
    "shape-not-list": _spec(shape="8"),
    # Python parses no int of more than 4,300 digits: a plain ValueError.
    "int-beyond-digit-limit": '{"meta": {"n": 1' + "0" * 5000 + '}, "arrays": []}',
}


class TestBundle:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = [("a", rng.normal(size=(4, 5))),
                  ("b", rng.integers(0, 9, size=7).astype(np.int64))]
        meta = {"kind": "test", "note": "x"}
        path = tmp_path / "b.bundle"
        write_bundle(path, meta, arrays)
        meta2, arrays2 = read_bundle(path)
        assert meta2 == meta
        for name, arr in arrays:
            assert arrays2[name].dtype == arr.dtype
            np.testing.assert_array_equal(arrays2[name], arr)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "b.bundle"
        write_bundle(path, {}, [("a", np.zeros(100))])
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IntegrityError):
            read_bundle(path)

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "b.bundle"
        write_bundle(path, {}, [("a", np.ones(50))])
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            read_bundle(path)

    @pytest.mark.parametrize("header", MALFORMED_HEADERS.values(),
                             ids=MALFORMED_HEADERS.keys())
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "b.bundle"
        write_raw_bundle(path, header, payload=bytes(8))
        with pytest.raises(IntegrityError):
            read_bundle(path)


    def test_bytes_match_reference_layout(self, tmp_path):
        # Streamed writing must produce the bytes of the documented layout,
        # also for arrays that need converting or a contiguous copy first.
        rng = np.random.default_rng(4)
        arrays = [("f", rng.normal(size=(3, 4))[:, ::2]),
                  ("big", rng.normal(size=5).astype(">f8")),
                  ("i32", np.arange(6, dtype=np.int32)),
                  ("empty", np.zeros((0, 3)))]
        path = tmp_path / "b.bundle"
        write_bundle(path, {"k": 1}, arrays)
        specs = [{"name": "f", "dtype": "<f8", "shape": [3, 2]},
                 {"name": "big", "dtype": "<f8", "shape": [5]},
                 {"name": "i32", "dtype": "<f8", "shape": [6]},
                 {"name": "empty", "dtype": "<f8", "shape": [0, 3]}]
        head = json.dumps({"meta": {"k": 1}, "arrays": specs}, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        body = (BUNDLE_MAGIC + struct.pack("<Q", len(head)) + head
                + b"".join(a.astype("<f8").tobytes() for _, a in arrays))
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "b.bundle"
        write_bundle(path, {"v": 1}, [("a", np.ones(50))])
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("eegadapt.fileio.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_bundle(path, {"v": 2}, [("a", np.zeros(50))])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["b.bundle"]

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        path = tmp_path / "w.wset"
        data = np.random.default_rng(5).normal(size=(512, 16, 256))
        labels = np.arange(512, dtype=np.int64)
        write_bundle(path, {"kind": "windows"}, [("data", data), ("labels", labels)])
        payload = data.nbytes + labels.nbytes
        del data
        (_, arrays), peak = traced_peak(read_bundle, path)
        assert arrays["data"].shape == (512, 16, 256)
        assert peak <= 1.1 * payload

    def test_huge_claimed_shape_refused_before_allocating(self, tmp_path):
        path = tmp_path / "b.bundle"
        write_raw_bundle(path, _spec(shape=[1 << 40]), payload=bytes(8))

        def refused():
            with pytest.raises(IntegrityError, match="truncated inside array a"):
                read_bundle(path)

        _, peak = traced_peak(refused)
        assert peak < 1 << 20

    def test_checksum_reported_ahead_of_structure(self, tmp_path):
        path = tmp_path / "b.bundle"
        write_raw_bundle(path, _spec(shape=[2]), payload=bytes(8))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="failed its checksum"):
            read_bundle(path)


class TestEmbeddingsText:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        subjects = [f"s{i}" for i in range(6)]
        path = tmp_path / "e.csv"
        write_embeddings_text(path, emb, labels, subjects,
                              header_lines=["run 1"])
        emb2, labels2, subjects2 = read_embeddings_text(path)
        np.testing.assert_array_equal(emb2, emb)
        np.testing.assert_array_equal(labels2, labels)
        assert subjects2 == subjects
        assert path.read_text().startswith("# run 1")

    def test_comma_in_subject_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            write_embeddings_text(tmp_path / "e.csv", np.zeros((1, 2)),
                                  np.zeros(1), ["a,b"])

    @staticmethod
    def lines(emb, labels, subjects, header):
        """The table as one string, the way it was written before it was
        written in blocks."""
        rows = [",".join(repr(float(v)) for v in row) + f",{label},{sid}"
                for row, label, sid in zip(emb, labels, subjects)]
        return "\n".join([f"# {line}" for line in header] + rows) + "\n"

    @pytest.mark.parametrize("n, header", [(0, []), (0, ["h"]), (1, []),
                                           (257, ["a", "b"])])
    def test_blocks_keep_the_bytes(self, tmp_path, monkeypatch, n, header):
        # 16-byte rows in blocks of 64 bytes: four rows a block.
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", 64)
        emb = np.random.default_rng(n).normal(size=(n, 2))
        labels, subjects = np.arange(n) % 3, [f"s{i % 5}" for i in range(n)]
        write_embeddings_text(tmp_path / "e.csv", emb, labels, subjects, header)
        expected = self.lines(emb, labels, subjects, header).encode()
        assert (tmp_path / "e.csv").read_bytes() == expected

    def test_write_peak_does_not_grow_with_the_rows(self, tmp_path):
        # Holding every line, their join and its bytes at once, 8,192 x 32
        # embeddings peaked at 15.31 MiB.
        def peak(n):
            emb = np.random.default_rng(n).normal(size=(n, 32))
            labels, subjects = np.arange(n) % 4, [f"s{i % 16}" for i in range(n)]
            return traced_peak(write_embeddings_text, tmp_path / f"{n}.csv", emb,
                               labels, subjects, ["run"])[1]

        small, large = peak(2048), peak(8192)
        assert large <= 1.1 * small, (small, large)
        assert large <= 0.25 * 15.31 * 2**20, large


def write_manifest(tmp_path, entries, classes=None, montage="builtin-table1"):
    doc = {
        "classes": classes or {"first": 0, "second": 1},
        "montage": montage,
        "recordings": entries,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def basic_entry(tmp_path, name, label="first", subject="s00", split="train",
                channels=2, t=64, resolution=None, fs=250.0):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    data = rng.integers(-50, 50, size=(channels, t)).astype(np.float64)
    write_recording_binary(tmp_path / name, data)
    entry = {
        "path": name,
        "format": "f32-binary",
        "channel_labels": [f"e{i}" for i in range(channels)],
        "sample_rate_hz": fs,
        "label": label,
        "subject_id": subject,
        "split": split,
    }
    if resolution is not None:
        entry["resolution"] = resolution
    return entry, data


def _set_entry(key, value):
    def edit(doc):
        doc["recordings"][0][key] = value
    return edit


def _set_doc(key, value):
    def edit(doc):
        doc[key] = value
    return edit


# Manifest edits that used to escape load_manifest as ValueError, TypeError
# or AttributeError, or load a rate no filter can be designed for; each with
# the text its ManifestError must carry.
MALFORMED_MANIFESTS = {
    "rate-not-number": (_set_entry("sample_rate_hz", "fast"), "entry 0"),
    "rate-list": (_set_entry("sample_rate_hz", [200.0]), "entry 0"),
    "rate-bool": (_set_entry("sample_rate_hz", True), "entry 0"),
    "rate-infinite": (_set_entry("sample_rate_hz", float("inf")), "entry 0"),
    "rate-nan": (_set_entry("sample_rate_hz", float("nan")), "entry 0"),
    # Numbers must be JSON numbers: a string is not read as the number it spells.
    "rate-string": (_set_entry("sample_rate_hz", "250"),
                    "entry 0: sample_rate_hz must be a number, got '250'"),
    "resolution-string": (_set_entry("resolution", [0.5, "0.5"]),
                          "entry 0: resolution must be a number, got '0.5'"),
    "labels-not-list": (_set_entry("channel_labels", "e0"), "entry 0"),
    "resolution-not-number": (_set_entry("resolution", ["a", "b"]), "entry 0"),
    "resolution-not-list": (_set_entry("resolution", 0.5), "entry 0"),
    "classes-list": (_set_doc("classes", ["first", "second"]), "classes"),
    "recordings-not-list": (_set_doc("recordings", {"a": 1}), "recordings"),
    "entry-not-object": (_set_doc("recordings", [3]), "entry 0"),
    # A subject id must be a JSON string: null would become "None", and 7
    # and "7" would merge into one subject. A NUL would not survive a
    # window set's string array.
    "subject-null": (_set_entry("subject_id", None), "entry 0: subject_id"),
    "subject-int": (_set_entry("subject_id", 7), "entry 0: subject_id"),
    "subject-nul": (_set_entry("subject_id", "s00\u0000"), "entry 0: subject_id"),
    # A JSON int may be too large for a float, which float() refuses.
    "rate-huge-int": (_set_entry("sample_rate_hz", 10 ** 400),
                      "entry 0: sample_rate_hz must fit in a float"),
    "resolution-huge-int": (_set_entry("resolution", [0.5, 10 ** 400]),
                            "entry 0: resolution must fit in a float"),
}


def write_malformed_manifest(tmp_path, case):
    entry, _ = basic_entry(tmp_path, "a.raw")
    path = write_manifest(tmp_path, [entry])
    doc = json.loads(path.read_text())
    MALFORMED_MANIFESTS[case][0](doc)
    path.write_text(json.dumps(doc))
    return path


def write_digit_limit_manifest(tmp_path):
    """A manifest whose sample rate is an int of 5,001 digits."""
    entry, _ = basic_entry(tmp_path, "a.raw")
    path = write_manifest(tmp_path, [entry])
    path.write_text(path.read_text().replace("250.0", "1" + "0" * 5000))
    return path


class TestManifest:
    def test_valid_manifest_loads(self, tmp_path):
        entries = [
            basic_entry(tmp_path, "a.raw", "first", "s00")[0],
            basic_entry(tmp_path, "b.raw", "second", "s01", split="val")[0],
            basic_entry(tmp_path, "c.raw", "first", "s02", split="test")[0],
        ]
        manifest = load_manifest(write_manifest(tmp_path, entries))
        assert len(manifest.recordings) == 3
        assert manifest.subjects() == ["s00", "s01", "s02"]

    def test_unknown_split_tag_names_entry(self, tmp_path):
        entry, _ = basic_entry(tmp_path, "a.raw")
        entry["split"] = "holdout"
        with pytest.raises(ManifestError, match="entry 0"):
            load_manifest(write_manifest(tmp_path, [entry]))

    def test_duplicate_class_indices_rejected(self, tmp_path):
        entry, _ = basic_entry(tmp_path, "a.raw")
        path = write_manifest(tmp_path, [entry], classes={"x": 0, "y": 0})
        with pytest.raises(ManifestError, match=re.escape(
                "int indices 0..1, each once, got {'x': 0, 'y': 0}")):
            load_manifest(path)

    def test_sparse_class_indices_rejected(self, tmp_path):
        entry, _ = basic_entry(tmp_path, "a.raw", label="x")
        path = write_manifest(tmp_path, [entry], classes={"x": 0, "y": 2})
        with pytest.raises(ManifestError, match=re.escape(
                "int indices 0..1, each once, got {'x': 0, 'y': 2}")):
            load_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        entry, _ = basic_entry(tmp_path, "a.raw")
        entry["path"] = "missing.raw"
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(write_manifest(tmp_path, [entry]))

    def test_bool_class_index_rejected(self, tmp_path):
        # JSON true/false are Python bools, which isinstance treats as ints.
        entry, _ = basic_entry(tmp_path, "a.raw", label="b")
        path = write_manifest(tmp_path, [entry], classes={"a": False, "b": True})
        with pytest.raises(ManifestError, match=re.escape(
                "int indices 0..1, each once, got {'a': False, 'b': True}")):
            load_manifest(path)

    def test_unknown_format_rejected(self, tmp_path):
        entry, _ = basic_entry(tmp_path, "a.raw")
        entry["format"] = "edf"
        with pytest.raises(ManifestError, match="format"):
            load_manifest(write_manifest(tmp_path, [entry]))

    def test_quantized_entries_convert_to_microvolts(self, tmp_path):
        resolution = [0.25, 2.0]
        entry, counts = basic_entry(tmp_path, "q.raw", resolution=resolution)
        manifest = load_manifest(write_manifest(tmp_path, [entry]))
        data = load_recording(manifest.recordings[0], manifest.base_dir)
        expected = np.empty_like(counts)
        for c in range(2):
            for t in range(counts.shape[1]):
                expected[c, t] = resolution[c] * counts[c, t]
        np.testing.assert_allclose(data, expected, atol=0)

    @pytest.mark.parametrize("case", MALFORMED_MANIFESTS.keys())
    def test_malformed_schema_rejected(self, tmp_path, case):
        path = write_malformed_manifest(tmp_path, case)
        with pytest.raises(ManifestError, match=MALFORMED_MANIFESTS[case][1]):
            load_manifest(path)

    def test_int_beyond_the_digit_limit_rejected(self, tmp_path):
        # json raises a plain ValueError for an int of more than 4,300 digits.
        path = write_digit_limit_manifest(tmp_path)
        with pytest.raises(ManifestError, match="is not valid JSON: Exceeds the limit"):
            load_manifest(path)


class TestSubjectSplit:
    def make_manifest(self, tmp_path, subjects):
        entries = []
        for i, sid in enumerate(subjects):
            entry, _ = basic_entry(tmp_path, f"r{i}.raw", subject=sid,
                                   split="unassigned")
            entries.append(entry)
        return load_manifest(write_manifest(tmp_path, entries))

    def test_exact_fraction_counts(self, tmp_path):
        manifest = self.make_manifest(tmp_path, [f"s{i:02d}" for i in range(10)])
        split = split_subject_independent(manifest, (0.6, 0.2, 0.2), seed=0)
        per = {"train": set(), "val": set(), "test": set()}
        for entry in split.recordings:
            per[entry.split].add(entry.subject_id)
        assert (len(per["train"]), len(per["val"]), len(per["test"])) == (6, 2, 2)

    def test_disjoint_over_many_seeds(self, tmp_path):
        subjects = [f"s{i:02d}" for i in range(9)]
        entries = []
        for i in range(27):
            entry, _ = basic_entry(tmp_path, f"m{i}.raw",
                                   subject=subjects[i % 9], split="unassigned")
            entries.append(entry)
        manifest = load_manifest(write_manifest(tmp_path, entries))
        for seed in range(100):
            split = split_subject_independent(manifest, (0.5, 0.25, 0.25),
                                              seed=seed)
            per = {"train": set(), "val": set(), "test": set()}
            for entry in split.recordings:
                per[entry.split].add(entry.subject_id)
            assert not (per["train"] & per["val"])
            assert not (per["train"] & per["test"])
            assert not (per["val"] & per["test"])
            assert per["train"] | per["val"] | per["test"] == set(subjects)

    def test_too_few_subjects_rejected(self, tmp_path):
        manifest = self.make_manifest(tmp_path, ["s00", "s01"])
        with pytest.raises(ConfigurationError):
            split_subject_independent(manifest, (0.6, 0.2, 0.2), seed=0)

    def test_bad_fractions_rejected(self, tmp_path):
        manifest = self.make_manifest(tmp_path, ["s00", "s01", "s02"])
        for fractions in [(0.9, 0.2, 0.2), (float("nan"), 0.5, 0.5)]:
            with pytest.raises(ConfigurationError):
                split_subject_independent(manifest, fractions, seed=0)


def small_checkpoint(with_adapter=True):
    adapter_cfg = default_adapter_config(4, 32, out_timesteps=8) if with_adapter else None
    encoder_cfg = BfmConfig(num_channels=23 if with_adapter else 4,
                            num_classes=3, patch_len=8, embed_dim=16,
                            num_layers=1, num_heads=2,
                            channel_vocab=23 if with_adapter else 4,
                            max_patches=1 if with_adapter else 2)
    model = build_classifier(encoder_cfg, adapter_cfg, seed=13)
    rng = np.random.default_rng(14)
    for _, p in model.named_arrays():
        p += rng.normal(0, 0.01, p.shape)
    fingerprint = {"window_len": 32, "alignment": "none", "channels": 4,
                   "mode": "adapter" if with_adapter else "raw"}
    return Checkpoint(model, {"a": 0, "b": 1, "c": 2}, fingerprint)


def rewrite_bundle(path, edit_meta=None, edit_arrays=None):
    """Apply edits to a bundle's meta and array table, keeping a valid CRC."""
    meta, arrays = read_bundle(path)
    if edit_meta:
        edit_meta(meta)
    if edit_arrays:
        edit_arrays(arrays)
    write_bundle(path, meta, list(arrays.items()))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        ckpt = small_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.classes == ckpt.classes
        assert loaded.fingerprint == ckpt.fingerprint
        assert loaded.model.encoder_config == ckpt.model.encoder_config
        assert loaded.model.adapter_config == ckpt.model.adapter_config
        original = dict(ckpt.model.named_arrays())
        loaded_arrays = loaded.model.named_arrays()
        assert [n for n, _ in loaded_arrays] == list(original)
        for name, arr in loaded_arrays:
            np.testing.assert_array_equal(arr, original[name])

    def test_float32_arrays_load_as_float64(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        rewrite_bundle(path, edit_arrays=lambda a: a.update(
            {n: v.astype("<f4") for n, v in a.items()}))
        _, stored = read_bundle(path)
        loaded = load_checkpoint(path)
        for name, arr in loaded.model.named_arrays():
            assert stored[name].dtype == np.dtype("<f4")
            assert arr.dtype == np.float64
            np.testing.assert_array_equal(arr, stored[name])

    def test_load_holds_one_copy_of_the_parameters(self, tmp_path):
        model = build_classifier(
            BfmConfig(num_channels=23, num_classes=4, patch_len=16,
                      embed_dim=128, num_layers=4, num_heads=4,
                      channel_vocab=23, max_patches=7),
            default_adapter_config(16, 256, out_timesteps=112), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(model, {c: i for i, c in enumerate("abcd")}, {}))
        payload = sum(p.nbytes for _, p in model.named_arrays())
        del model
        loaded, peak = traced_peak(load_checkpoint, path)
        assert loaded.model.num_classes == 4
        assert peak <= 1.2 * payload

    def test_round_trip_without_adapter(self, tmp_path):
        ckpt = small_checkpoint(with_adapter=False)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.model.adapter is None
        assert loaded.model.adapter_config is None

    def test_array_names_in_file_order(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        _, arrays = read_bundle(path)
        block = ["ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv",
                 "wo", "bo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2"]
        assert list(arrays) == [
            "adapter.layers.0.w", "adapter.layers.0.b",
            "adapter.layers.1.w", "adapter.layers.1.b",
            "encoder.patch_w", "encoder.patch_b",
            "encoder.channel_embed", "encoder.temporal_embed",
            *(f"encoder.blocks.0.{name}" for name in block),
            "encoder.final_g", "encoder.final_b",
            "encoder.head_w", "encoder.head_b",
        ]

    @pytest.mark.parametrize("key", ["encoder_config", "classes", "fingerprint"])
    def test_missing_meta_table_rejected(self, tmp_path, key):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        rewrite_bundle(path, edit_meta=lambda meta: meta.pop(key))
        with pytest.raises(IntegrityError, match=key):
            load_checkpoint(path)

    def test_malformed_config_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        rewrite_bundle(path, edit_meta=lambda meta: meta["encoder_config"]
                       .update(depth=3))
        with pytest.raises(IntegrityError, match="malformed"):
            load_checkpoint(path)

    def test_missing_array_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        rewrite_bundle(path, edit_arrays=lambda a: a.pop("adapter.layers.1.b"))
        with pytest.raises(IntegrityError, match="missing adapter.layers.1.b"):
            load_checkpoint(path)

    def test_unexpected_array_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        rewrite_bundle(path, edit_arrays=lambda a: a.update(
            {"encoder.blocks.9.wq": np.zeros((16, 16))}))
        with pytest.raises(IntegrityError, match="unexpected encoder.blocks.9.wq"):
            load_checkpoint(path)

    def test_wrong_shape_array_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        rewrite_bundle(path, edit_arrays=lambda a: a.update(
            {"encoder.head_w": np.zeros((16, 5))}))
        with pytest.raises(IntegrityError, match=r"encoder.head_w has shape \(16, 5\)"):
            load_checkpoint(path)

    def test_parameter_declared_as_integers_rejected(self, tmp_path):
        # The float64 bytes, declared int64, would load as huge weights.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        rewrite_bundle(path, edit_arrays=lambda a: a.update(
            {"encoder.head_w": a["encoder.head_w"].view("<i8")}))
        with pytest.raises(IntegrityError, match="encoder.head_w .* dtype int64"):
            load_checkpoint(path)

    def test_class_index_of_another_type_rejected(self, tmp_path):
        # The error message sorted the indices, None among ints.
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        rewrite_bundle(path, edit_meta=lambda meta: meta["classes"].update(b=None))
        with pytest.raises(IntegrityError, match=re.escape(
                "int indices 0..2, each once, got {'a': 0, 'b': None, 'c': 2}")):
            load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    # Each field set to 2**40 describes arrays of terabytes; the configs must
    # be compared with the stored arrays before anything is allocated.
    @pytest.mark.parametrize("field", [
        "embed_dim", "channel_vocab", "max_patches", "num_classes", "patch_len",
        "in_channels", "out_maps"])
    def test_huge_config_refused_before_allocating(self, tmp_path, field):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())

        def edit(meta):
            if field == "in_channels":
                meta["adapter_config"][field] = 2 ** 40
            elif field == "out_maps":
                meta["adapter_config"]["layers"][0][field] = 2 ** 40
            else:
                meta["encoder_config"][field] = 2 ** 40

        rewrite_bundle(path, edit_meta=edit)
        with pytest.raises(IntegrityError, match="do not match the stored configs"):
            load_checkpoint(path)

    # A float equal to the stored integer still describes the stored shapes,
    # so only the type check stands between it and a TypeError later.
    @pytest.mark.parametrize("field", [
        "patch_len", "embed_dim", "num_heads", "num_classes", "in_channels",
        "stride"])
    def test_float_config_refused(self, tmp_path, field):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())

        def edit(meta):
            if field == "in_channels":
                table = meta["adapter_config"]
            elif field == "stride":
                table = meta["adapter_config"]["layers"][0]
            else:
                table = meta["encoder_config"]
            table[field] = float(table[field])

        rewrite_bundle(path, edit_meta=edit)
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_checkpoint())
        meta, arrays = read_bundle(path)
        write_bundle(path, {**meta, "version": 99}, list(arrays.items()))
        with pytest.raises(IntegrityError, match="version"):
            load_checkpoint(path)

    def test_fingerprint_mismatch_names_keys(self):
        a = {"channels": 23, "window_len": 128}
        b = {"channels": 128, "window_len": 128}
        with pytest.raises(FingerprintMismatchError, match="channels"):
            check_fingerprint(a, b)
        check_fingerprint(a, dict(a))


# Malformed class tables, fed alike to the three readers of one. Each has
# 3 entries; a checkpoint's head has 3 classes, and a manifest's or window
# set's table is sized by itself. A checkpoint also refuses a well-formed
# table one class longer or shorter than its head.
BAD_CLASS_TABLES = {
    "empty": {},
    "bool-index": {"a": 0, "b": True, "c": 2},
    "repeated-index": {"a": 0, "b": 1, "c": 1},
    "gap": {"a": 0, "b": 1, "c": 3},
    "float-index": {"a": 0, "b": 1.0, "c": 2},
}
HEAD_SIZED_TABLES = {"longer": {"a": 0, "b": 1, "c": 2, "d": 3},
                     "shorter": {"a": 0, "b": 1}}


def write_with_classes(tmp_path, reader, classes):
    """A file that ``reader`` reads, valid but for its class table ``classes``;
    with the function that reads it and the error it raises."""
    if reader == "manifest":
        entry, _ = basic_entry(tmp_path, "a.raw", label="a")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"classes": classes, "recordings": [entry]}))
        return path, load_manifest, ManifestError
    path, load = write_document(tmp_path, reader)
    rewrite_bundle(path, edit_meta=lambda meta: meta.update(classes=classes))
    return path, load, IntegrityError


def write_document(tmp_path, reader):
    """A small valid checkpoint or window set, and the function that reads it."""
    if reader == "checkpoint":
        path, load = tmp_path / "m.ckpt", load_checkpoint
        save_checkpoint(path, small_checkpoint())
    else:
        path, load = tmp_path / "w.wset", load_window_set
        save_window_set(path, WindowSet(
            data=np.zeros((3, 2, 8)), labels=np.arange(3), subjects=np.array(["s0"] * 3),
            splits=np.array(["test"] * 3), sample_rates=np.full(3, 250.0),
            channel_labels=["e0", "e1"], classes={"a": 0, "b": 1, "c": 2},
            fingerprint={}))
    return path, load


@pytest.mark.parametrize("reader, case", [
    *((reader, case) for reader in ("manifest", "window-set", "checkpoint")
      for case in BAD_CLASS_TABLES),
    *(("checkpoint", case) for case in HEAD_SIZED_TABLES)])
def test_every_reader_refuses_a_bad_class_table_alike(tmp_path, reader, case):
    classes = {**BAD_CLASS_TABLES, **HEAD_SIZED_TABLES}[case]
    path, load, error = write_with_classes(tmp_path, reader, classes)
    rule = ("must be a non-empty table of class names to indices" if not classes
            else "must map class names to the int indices 0..2, each once")
    with pytest.raises(error, match=re.escape(f"{path}: 'classes' {rule}, "
                                              f"got {classes!r}")):
        load(path)


# A bundle each reader must refuse by its meta's kind or version alone: the
# document written, the meta edit, and the reader that expects another.
WRONG_DOCUMENTS = {
    "checkpoint-as-window-set": ("checkpoint", {}, "window-set"),
    "window-set-as-checkpoint": ("window-set", {}, "checkpoint"),
    "window-set-version-2": ("window-set", {"version": 2}, "window-set"),
    "checkpoint-version-true": ("checkpoint", {"version": True}, "checkpoint"),
    "no-kind": ("window-set", {"kind": None}, "window-set"),
}


@pytest.mark.parametrize("case", WRONG_DOCUMENTS)
def test_every_bundle_reader_refuses_another_document_alike(tmp_path, case):
    written, edit, wanted = WRONG_DOCUMENTS[case]
    path, _ = write_document(tmp_path, written)
    rewrite_bundle(path, edit_meta=lambda meta: meta.update(edit))
    load = load_checkpoint if wanted == "checkpoint" else load_window_set
    with pytest.raises(IntegrityError,
                       match=re.escape(f"{path} is not a version-1 {wanted}")):
        load(path)


@pytest.mark.parametrize("reader", ["manifest", "window-set"])
def test_a_table_outside_a_checkpoint_is_sized_by_itself(tmp_path, reader):
    classes = HEAD_SIZED_TABLES["longer"]
    path, load, _ = write_with_classes(tmp_path, reader, classes)
    assert load(path).classes == classes


def montage_manifest(tmp_path, n=3, t=300, fs=250.0):
    """Manifest whose recordings carry every electrode of the builtin map."""
    from test_montage import all_source_labels

    labels = all_source_labels()
    entries = []
    rng = np.random.default_rng(21)
    for i in range(n):
        data = rng.normal(size=(len(labels), t))
        name = f"rec{i}.raw"
        write_recording_binary(tmp_path / name, data)
        entries.append({
            "path": name,
            "format": "f32-binary",
            "channel_labels": labels,
            "sample_rate_hz": fs,
            "label": "first" if i % 2 == 0 else "second",
            "subject_id": f"s{i:02d}",
            "split": ("train", "val", "test")[i % 3],
        })
    return load_manifest(write_manifest(tmp_path, entries))


# Each malformed window set, the error loading it must raise, and the field
# the message must name.
MALFORMED_WINDOW_SETS = {
    "zero-rate": (DomainError, "sample_rates"),
    "missing-channel-label": (IntegrityError, "channel_labels"),
    "no-subjects": (IntegrityError, "subjects"),
    "short-splits": (IntegrityError, "splits"),
    "nonfinite-data": (DomainError, "data"),
    "no-labels-array": (IntegrityError, "labels"),
    "short-labels": (IntegrityError, "labels"),
    "fingerprint-not-table": (IntegrityError, "fingerprint"),
    "data-2d": (IntegrityError, "data"),
    "unknown-label": (DomainError, "labels"),
    "negative-label": (DomainError, "labels"),
    "fractional-label": (IntegrityError, "labels"),
    "nonfinite-label": (IntegrityError, "labels"),
    "class-index-not-int": (IntegrityError, "classes"),
    "negative-class-index": (IntegrityError, "classes"),
    "sparse-class-index": (IntegrityError, "classes"),
    "subject-not-str": (IntegrityError, "subjects"),
    "subject-nul": (IntegrityError, "subjects"),
    "unknown-split": (IntegrityError, "splits"),
    "channel-label-not-str": (IntegrityError, "channel_labels"),
    "data-not-float": (IntegrityError, "data"),
    "rates-not-float": (DomainError, "sample_rates"),
    "infinite-rate": (DomainError, "sample_rates"),
}


def break_window_set(src, dst, case):
    """Rewrite a valid window set at ``src`` as malformed ``case`` at ``dst``."""
    meta, arrays = read_bundle(src)
    if case == "zero-rate":
        arrays["sample_rates"][2] = 0.0
    elif case == "infinite-rate":
        arrays["sample_rates"][0] = np.inf
    elif case == "missing-channel-label":
        meta["channel_labels"].pop()
    elif case == "no-subjects":
        del meta["subjects"]
    elif case == "short-splits":
        meta["splits"].pop()
    elif case == "nonfinite-data":
        arrays["data"][1, 0, 3] = np.nan
    elif case == "no-labels-array":
        del arrays["labels"]
    elif case == "short-labels":
        arrays["labels"] = arrays["labels"][:-1]
    elif case == "fingerprint-not-table":
        meta["fingerprint"] = ["window_len", 128]
    elif case == "data-2d":
        arrays["data"] = arrays["data"][:, 0]
    elif case == "unknown-label":
        arrays["labels"][0] = len(meta["classes"])
    elif case == "negative-label":
        arrays["labels"][0] = -1
    elif case == "fractional-label":
        # Stored as floats; cast to int, 0.7 and 1.7 would load as 0 and 1.
        arrays["labels"] = arrays["labels"] + 0.7
    elif case == "nonfinite-label":
        arrays["labels"] = arrays["labels"].astype(np.float64)
        arrays["labels"][0] = np.nan
    elif case == "class-index-not-int":
        meta["classes"]["first"] = "0"
    elif case in ("negative-class-index", "sparse-class-index"):
        # Labels stay consistent with the table, so only its density is wrong.
        index = -1 if case == "negative-class-index" else 2
        meta["classes"]["second"] = index
        arrays["labels"][arrays["labels"] == 1] = index
    elif case == "subject-not-str":
        meta["subjects"][0] = 7
    elif case == "subject-nul":
        # A str array would drop the trailing NUL and load "s00".
        meta["subjects"][0] += "\u0000"
    elif case == "unknown-split":
        meta["splits"][0] = "bogus"
    elif case == "channel-label-not-str":
        meta["channel_labels"][0] = 3
    elif case in ("data-not-float", "rates-not-float"):
        # The float64 bytes, declared int64, would load as huge integers.
        name = "data" if case == "data-not-float" else "sample_rates"
        arrays[name] = arrays[name].view("<i8")
    write_bundle(dst, meta, list(arrays.items()))


class TestPipeline:
    def test_preprocess_shapes_and_counts(self, tmp_path):
        manifest = montage_manifest(tmp_path, n=3, t=300)
        wset = preprocess_manifest(manifest, FilterSettings(), 128)
        assert wset.data.shape == (6, len(wset.channel_labels), 128)
        assert wset.fingerprint["alignment"] == "none"
        assert wset.fingerprint["window_len"] == 128

    def test_align_and_save_load_round_trip(self, tmp_path):
        manifest = montage_manifest(tmp_path, n=3, t=300)
        wset = preprocess_manifest(manifest, FilterSettings(), 128)
        aligned = align_window_set(wset, "mix", builtin_montage(), 96)
        assert aligned.data.shape == (6, 23, 96)
        assert aligned.fingerprint["alignment"] == "mix"
        path = tmp_path / "w.wset"
        save_window_set(path, aligned)
        loaded = load_window_set(path)
        np.testing.assert_array_equal(loaded.data, aligned.data)
        np.testing.assert_array_equal(loaded.labels, aligned.labels)
        np.testing.assert_array_equal(loaded.subjects, aligned.subjects)
        np.testing.assert_array_equal(loaded.splits, aligned.splits)
        assert loaded.fingerprint == aligned.fingerprint
        assert loaded.classes == aligned.classes

    def test_select_alignment_takes_nearest_source(self, tmp_path):
        manifest = montage_manifest(tmp_path, n=3, t=300)
        wset = preprocess_manifest(manifest, FilterSettings(), 128)
        aligned = align_window_set(wset, "select", builtin_montage(), 128)
        assert aligned.channel_labels == list(TARGET_ORDER)
        for i, target in enumerate(builtin_montage().targets):
            row = wset.channel_labels.index(target.sources[0])
            np.testing.assert_array_equal(aligned.data[:, i], wset.data[:, row])

    def test_select_split_materialization(self, tmp_path):
        manifest = montage_manifest(tmp_path, n=3, t=300)
        wset = preprocess_manifest(manifest, FilterSettings(), 128)
        train = wset.select("train")
        assert len(train) == 2
        assert set(train.subjects) == {"s00"}
        # No table keeps every row and the data's labels.
        everything = wset.select("all")
        assert len(everything) == 6
        np.testing.assert_array_equal(everything.y, wset.labels)
        # A head of 'second' alone: the rows of 'first' go and the rest take
        # the head's index; a head class the data lacks changes nothing.
        kept = wset.select("all", {"unseen": 0, "second": 1})
        keep = wset.labels == wset.classes["second"]
        assert 0 < keep.sum() < len(wset)
        np.testing.assert_array_equal(kept.x, wset.data[keep])
        np.testing.assert_array_equal(kept.y, np.ones(keep.sum()))
        assert kept.subjects.tolist() == wset.subjects[keep].tolist()
        assert len(wset.select("train", {"second": 0})) == 0
        assert wset.select("val", {"second": 0}).y.tolist() == [0, 0]

    def test_split_of_every_row_is_the_loaded_array(self, tmp_path):
        # extract --split all must not hold a second copy of the set.
        manifest = montage_manifest(tmp_path, n=3, t=300)
        wset = preprocess_manifest(manifest, FilterSettings(), 128)
        assert np.shares_memory(wset.select("all").x, wset.data)
        swapped = wset.select("all", {"second": 0, "first": 1})
        assert np.shares_memory(swapped.x, wset.data)
        np.testing.assert_array_equal(swapped.y, 1 - wset.labels)
        dropped = wset.select("all", {"first": 0})
        assert not np.shares_memory(dropped.x, wset.data)
        np.testing.assert_array_equal(dropped.x, wset.data[wset.labels == 0])

    def test_double_alignment_rejected(self, tmp_path):
        manifest = montage_manifest(tmp_path, n=3, t=300)
        wset = preprocess_manifest(manifest, FilterSettings(), 128)
        aligned = align_window_set(wset, "select", builtin_montage(), 128)
        with pytest.raises(ConfigurationError):
            align_window_set(aligned, "mix", builtin_montage(), 64)

    def test_no_whole_window_fails_before_any_recording_loads(self, tmp_path,
                                                             monkeypatch):
        entries = [basic_entry(tmp_path, f"r{i}.raw", subject=f"s{i:02d}",
                               channels=16, t=100)[0] for i in range(8)]
        manifest = load_manifest(write_manifest(tmp_path, entries))
        loaded = []
        real = pipeline.load_recording
        monkeypatch.setattr(pipeline, "load_recording",
                            lambda entry, *args: loaded.append(entry.path)
                            or real(entry, *args))
        with pytest.raises(ConfigurationError,
                           match="no windows of length 128 could be extracted"):
            preprocess_manifest(manifest, FilterSettings(), 128)
        assert loaded == []

    def test_unassigned_windows_block_training(self, tmp_path):
        entry, _ = basic_entry(tmp_path, "u.raw", split="unassigned", t=128)
        manifest = load_manifest(write_manifest(tmp_path, [entry]))
        wset = preprocess_manifest(manifest, FilterSettings(), 64)
        with pytest.raises(ConfigurationError):
            wset.require_assigned()

    @pytest.mark.parametrize("case", MALFORMED_WINDOW_SETS)
    def test_malformed_window_set_rejected(self, tmp_path, case):
        manifest = montage_manifest(tmp_path, n=3, t=300)
        path = tmp_path / "w.wset"
        save_window_set(path, preprocess_manifest(manifest, FilterSettings(), 128))
        load_window_set(path)
        broken = tmp_path / "broken.wset"
        break_window_set(path, broken, case)
        error, field = MALFORMED_WINDOW_SETS[case]
        with pytest.raises(error, match=field):
            load_window_set(broken)


def mixed_manifest(tmp_path):
    """Binary and delimited-text recordings of two channels and different
    lengths; c.raw is shorter than a window of 100 and d.raw is quantized.
    Returns the manifest and each file's values as float64."""
    specs = [("a.raw", 700, None), ("b.csv", 430, None), ("c.raw", 60, None),
             ("d.raw", 250, [0.5, 0.25]), ("e.csv", 333, None)]
    rng = np.random.default_rng(41)
    entries, values = [], []
    for i, (name, t, resolution) in enumerate(specs):
        if resolution is None:
            data = rng.normal(scale=20.0, size=(2, t))
        else:
            data = rng.integers(-200, 200, size=(2, t)).astype(np.float64)
        binary = name.endswith(".raw")
        if binary:
            write_recording_binary(tmp_path / name, data)
            data = data.astype(np.float32).astype(np.float64)
        else:
            write_recording_text(tmp_path / name, data)
        values.append(data)
        entries.append({
            "path": name,
            "format": "f32-binary" if binary else "delimited-text",
            "channel_labels": ["e0", "e1"],
            "sample_rate_hz": (250.0, 200.0)[i % 2],
            "label": ("first", "second")[i % 2],
            "subject_id": f"s{i}",
            "split": "train",
        })
        if resolution is not None:
            entries[-1]["resolution"] = resolution
    return load_manifest(write_manifest(tmp_path, entries)), values


def group_manifest(tmp_path):
    """96 two-channel recordings, one window of 100 each: 40 at 250 Hz x 100
    samples, 20 at 200 Hz (a rate change), 20 at 200 Hz x 150 (a length
    change) and 16 at 250 Hz x 100. The 1/32 share of the window array is
    96 x 1,600 / 32 = 4,800 bytes: groups of 3 recordings of 100 samples and
    of 2 of 150, so every run but the third ends in a shorter group. r1 is
    delimited text and r4 is quantized. Returns the manifest, each file's
    values as float64, and the groups' sizes in manifest order."""
    specs = [(250.0, 100)] * 40 + [(200.0, 100)] * 20 + [(200.0, 150)] * 20 \
        + [(250.0, 100)] * 16
    rng = np.random.default_rng(43)
    entries, values = [], []
    for i, (fs, t) in enumerate(specs):
        entry = {"path": f"r{i}.raw", "format": "f32-binary",
                 "channel_labels": ["e0", "e1"], "sample_rate_hz": fs,
                 "label": ("first", "second")[i % 2], "subject_id": f"s{i % 4}",
                 "split": "train"}
        data = rng.normal(scale=20.0, size=(2, t))
        if i == 1:
            entry.update(path="r1.csv", format="delimited-text")
            write_recording_text(tmp_path / "r1.csv", data)
        else:
            if i == 4:
                data = rng.integers(-200, 200, size=(2, t)).astype(np.float64)
                entry["resolution"] = [0.5, 0.25]
            write_recording_binary(tmp_path / entry["path"], data)
            data = data.astype(np.float32).astype(np.float64)
        entries.append(entry)
        values.append(data)
    sizes = [3] * 13 + [1] + [3] * 6 + [2] + [2] * 10 + [3] * 5 + [1]
    return load_manifest(write_manifest(tmp_path, entries)), values, sizes


def per_recording_oracle(manifest, values, cfg, window_len):
    """Each recording filtered on its own by scipy and cut, concatenated."""
    expected = []
    for entry, x in zip(manifest.recordings, values):
        if entry.resolution is not None:
            x = np.array(entry.resolution)[:, None] * np.rint(x)
        fs = entry.sample_rate_hz
        for sos in (design_notch(cfg.notch_hz, fs, cfg.notch_q),
                    design_bandpass(cfg.band_low_hz, cfg.band_high_hz,
                                    cfg.band_order, fs)):
            x = sosfiltfilt(sos, x, axis=1, padlen=6 * len(sos))
        expected.append(extract_windows(x, window_len))
    return np.concatenate(expected)


# Every target mixes both electrodes of ``mixed_manifest``, in turn first.
TWO_ELECTRODE_MONTAGE = MontageMap(tuple(
    MontageTarget(label, ("e0", "e1")[::1 - 2 * (i % 2)])
    for i, label in enumerate(TARGET_ORDER)))


class TestPreprocessFill:
    """Every recording is sized before any is loaded, and the windows fill
    one array allocated once."""

    @pytest.mark.parametrize("count", [1, 2])
    def test_mixed_manifest_matches_the_per_recording_oracle(self, tmp_path,
                                                             workers, count):
        # One worker runs the recordings in turn on the calling thread; two
        # run them as tasks on the pool, in any order.
        workers(count)
        manifest, values = mixed_manifest(tmp_path)
        wset = preprocess_manifest(manifest, FilterSettings(), 100)
        expected = per_recording_oracle(manifest, values, FilterSettings(), 100)
        assert wset.data.shape == expected.shape == (16, 2, 100)
        assert wset.data.tobytes() == expected.tobytes()
        counts = [7, 4, 0, 2, 3]
        assert wset.labels.tolist() == np.repeat([0, 1, 0, 1, 0], counts).tolist()
        assert wset.subjects.tolist() == np.repeat(
            [f"s{i}" for i in range(5)], counts).tolist()
        assert wset.sample_rates.tolist() == np.repeat(
            [250.0, 200.0, 250.0, 200.0, 250.0], counts).tolist()

    def test_text_recordings_are_parsed_once(self, tmp_path, monkeypatch):
        manifest, _ = mixed_manifest(tmp_path)
        parsed = []
        real = manifest_module.read_recording_text
        monkeypatch.setattr(manifest_module, "read_recording_text",
                            lambda path: parsed.append(path.name) or real(path))
        preprocess_manifest(manifest, FilterSettings(), 100)
        assert parsed == ["b.csv", "e.csv"]

    def test_recording_changed_after_sizing_is_refused(self, tmp_path, monkeypatch):
        manifest, _ = mixed_manifest(tmp_path)
        real = pipeline.load_recording

        def rewritten_before_load(entry, base_dir, data=None):
            if entry.path == "d.raw":
                write_recording_binary(base_dir / entry.path, np.zeros((2, 900)))
            return real(entry, base_dir, data)

        monkeypatch.setattr(pipeline, "load_recording", rewritten_before_load)
        with pytest.raises(IntegrityError, match="d.raw changed while it was "
                           "preprocessed: sized as 2x250, read as 2x900"):
            preprocess_manifest(manifest, FilterSettings(), 100)

    def test_earlier_changed_recording_is_named_first(self, tmp_path, workers,
                                                      monkeypatch):
        # a.raw's task waits until c.raw's has failed, so the later error
        # comes first in time; the earlier one in manifest order is raised.
        # c.raw is the third task: at most _WORKERS + 1 are in flight.
        workers(2)
        manifest, _ = mixed_manifest(tmp_path)
        real = pipeline.load_recording
        later_failed = threading.Event()

        def rewritten_before_load(entry, base_dir, data=None):
            if entry.path == "a.raw":
                assert later_failed.wait(10)
            if entry.path in ("a.raw", "c.raw"):
                write_recording_binary(base_dir / entry.path, np.zeros((2, 900)))
            loaded = real(entry, base_dir, data)
            if entry.path == "c.raw":
                later_failed.set()
            return loaded

        monkeypatch.setattr(pipeline, "load_recording", rewritten_before_load)
        with pytest.raises(IntegrityError, match="a.raw changed while it was "
                           "preprocessed: sized as 2x700, read as 2x900"):
            preprocess_manifest(manifest, FilterSettings(), 100)
        assert later_failed.is_set()

    def test_no_task_runs_after_the_error(self, tmp_path, workers, monkeypatch):
        # a.raw fails at once while b.csv is still loading: the error waits
        # for the tasks running, the ones queued behind them never start,
        # and no task starts or finishes after it.
        workers(2)
        manifest, _ = mixed_manifest(tmp_path)
        real_load, real_cut = pipeline.load_recording, pipeline.extract_windows
        started, finished = [], []

        def slow_load(entry, base_dir, data=None):
            started.append(entry.path)
            if entry.path == "a.raw":
                write_recording_binary(base_dir / entry.path, np.zeros((2, 900)))
            else:
                time.sleep(0.2)
            return real_load(entry, base_dir, data)

        def cut(data, window_len):
            windows = real_cut(data, window_len)
            finished.append(data.shape[1])
            return windows

        monkeypatch.setattr(pipeline, "load_recording", slow_load)
        monkeypatch.setattr(pipeline, "extract_windows", cut)
        with pytest.raises(IntegrityError, match="a.raw changed"):
            preprocess_manifest(manifest, FilterSettings(), 100)
        at_error = (len(started), len(finished))
        time.sleep(0.5)
        assert (len(started), len(finished)) == at_error
        # c.raw may take the failed task's worker before the error is seen.
        assert set(started[:2]) == {"a.raw", "b.csv"} and "e.csv" not in started

    @pytest.mark.parametrize("count", [1, 2])
    def test_groups_match_the_per_recording_oracle(self, tmp_path, workers, count):
        workers(count)
        manifest, values, _ = group_manifest(tmp_path)
        wset = preprocess_manifest(manifest, FilterSettings(), 100)
        expected = per_recording_oracle(manifest, values, FilterSettings(), 100)
        assert wset.data.shape == expected.shape == (96, 2, 100)
        assert wset.data.tobytes() == expected.tobytes()
        assert wset.subjects.tolist() == [f"s{i % 4}" for i in range(96)]
        assert wset.sample_rates.tolist() == [250.0] * 40 + [200.0] * 40 + [250.0] * 16

    def test_each_group_is_filtered_in_one_call_per_filter(self, tmp_path,
                                                          workers, monkeypatch):
        # In turn, the calls come in manifest order: the notch and then the
        # bandpass over each group's stacked rows.
        workers(1)
        manifest, _, sizes = group_manifest(tmp_path)
        shapes = []
        real = pipeline.apply_chain_to_rows
        monkeypatch.setattr(pipeline, "apply_chain_to_rows",
                            lambda sos, data: shapes.append(data.shape) or real(sos, data))
        preprocess_manifest(manifest, FilterSettings(), 100)
        lengths = [100] * 21 + [150] * 10 + [100] * 6
        assert len(sizes) == len(lengths) == 37 and sum(sizes) == 96
        assert shapes == [(2 * k, t) for k, t in zip(sizes, lengths) for _ in "nb"]

    def test_changed_second_recording_of_a_group_is_named(self, tmp_path, workers,
                                                          monkeypatch):
        # r3, r4 and r5 form one group; r4 changes after r3 is loaded into it.
        workers(2)
        manifest, _, _ = group_manifest(tmp_path)
        real = pipeline.load_recording

        def rewritten_before_load(entry, base_dir, data=None):
            if entry.path == "r4.raw":
                write_recording_binary(base_dir / entry.path, np.zeros((2, 900)))
            return real(entry, base_dir, data)

        monkeypatch.setattr(pipeline, "load_recording", rewritten_before_load)
        with pytest.raises(IntegrityError, match="r4.raw changed while it was "
                           "preprocessed: sized as 2x100, read as 2x900"):
            preprocess_manifest(manifest, FilterSettings(), 100)

    def test_groups_run_on_the_pool(self, tmp_path, workers, monkeypatch):
        # Two or more groups go to the pool's threads, whatever their size.
        workers(2)
        manifest, _, _ = group_manifest(tmp_path)
        threads = set()
        real = pipeline.load_recording
        monkeypatch.setattr(pipeline, "load_recording", lambda *a: threads.add(
            threading.current_thread()) or real(*a))
        preprocess_manifest(manifest, FilterSettings(), 100)
        assert threads and threading.main_thread() not in threads

    def test_sample_rate_below_the_notch_fails_before_any_load(self, tmp_path,
                                                               monkeypatch):
        manifest, _ = mixed_manifest(tmp_path)
        manifest.recordings[3] = replace(manifest.recordings[3], sample_rate_hz=80.0)
        loads = []
        real = pipeline.load_recording
        monkeypatch.setattr(pipeline, "load_recording",
                            lambda *a: loads.append(a[0].path) or real(*a))
        with pytest.raises(DomainError, match="notch center 50.0 Hz must lie in "
                           r"\(0, 40.0\) for sample rate 80.0 Hz"):
            preprocess_manifest(manifest, FilterSettings(), 100)
        assert loads == []

    @pytest.mark.parametrize("target_len", [64, 250], ids=["shorter", "tiled"])
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("mode", ["select", "mix"])
    def test_aligned_preprocess_matches_aligning_the_set(self, tmp_path, workers,
                                                         mode, count, target_len):
        # Each recording's task aligns its own windows: the same bytes as
        # aligning the whole set afterwards, in turn and on the pool, with a
        # target shorter than the 100-sample window and one that tiles it.
        workers(count)
        manifest, _ = mixed_manifest(tmp_path)
        align = (mode, TWO_ELECTRODE_MONTAGE, target_len)
        got = preprocess_manifest(manifest, FilterSettings(), 100, align)
        expected = align_window_set(
            preprocess_manifest(manifest, FilterSettings(), 100), *align)
        assert got.data.shape == (16, 23, target_len)
        assert got.data.tobytes() == expected.data.tobytes()
        assert got.fingerprint == expected.fingerprint
        assert got.channel_labels == expected.channel_labels == list(TARGET_ORDER)

    @pytest.mark.parametrize("case,error,needle", [
        ("missing", AlignmentError, "no electrode 'e2' needed for target FP1"),
        ("repeated", AlignmentError, "'e0' appears more than once"),
        ("too-many-sources", DomainError, "has 2 sources but target_len is only 1"),
    ])
    def test_bad_alignment_fails_before_any_load(self, tmp_path, monkeypatch,
                                                 case, error, needle):
        manifest, _ = mixed_manifest(tmp_path)
        montage, target_len = TWO_ELECTRODE_MONTAGE, 64
        if case == "missing":
            montage = MontageMap(tuple(
                MontageTarget(t.target_label, ("e2",)) for t in montage.targets))
        elif case == "repeated":
            manifest.recordings[:] = [replace(e, channel_labels=["e0", " e0"])
                                      for e in manifest.recordings]
        else:
            target_len = 1
        loads = []
        real = pipeline.load_recording
        monkeypatch.setattr(pipeline, "load_recording",
                            lambda *a: loads.append(a[0].path) or real(*a))
        with pytest.raises(error, match=needle):
            preprocess_manifest(manifest, FilterSettings(), 100,
                                ("mix", montage, target_len))
        assert loads == []

    def test_binary_manifest_peaks_near_one_window_set(self, tmp_path, workers):
        # 96 recordings of 4 x 1024 make 384 windows of 4 x 256 (3.1 MB),
        # and one recording's working set is a few 32 KB arrays, held by
        # each of the two workers. Windows kept per recording and then
        # concatenated peaked at twice the set.
        workers(2)
        rng = np.random.default_rng(42)
        entries = []
        for i in range(96):
            write_recording_binary(tmp_path / f"r{i}.raw",
                                   rng.normal(scale=20.0, size=(4, 1024)))
            entries.append({
                "path": f"r{i}.raw", "format": "f32-binary",
                "channel_labels": ["a", "b", "c", "d"], "sample_rate_hz": 250.0,
                "label": "first", "subject_id": f"s{i % 8}", "split": "train",
            })
        manifest = load_manifest(write_manifest(tmp_path, entries))
        wset, peak = traced_peak(preprocess_manifest, manifest, FilterSettings(), 256)
        assert wset.data.shape == (384, 4, 256)
        assert peak <= 1.25 * wset.data.nbytes
