"""Streamed ``--windows`` commands: ``eval`` and ``extract`` forward each
chunk of rows as it is read, and ``align`` gathers block by block.

They give the bytes of the in-memory path at 1 and 2 workers, refuse a
corrupt set in one line without writing anything, and hold a few chunks of
rows plus their outputs, however many windows the set holds.
"""

import ctypes
import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eegadapt import cli, fileio, montage, pipeline
from eegadapt import model as model_module
from eegadapt.checkpoint import load_checkpoint
from eegadapt.cli import main
from eegadapt.errors import DimensionError, NumericError
from eegadapt.fileio import read_bundle, write_bundle
from eegadapt.model import EegClassifier, map_chunks
from eegadapt.montage import load_montage
from eegadapt.pipeline import (StoredRows, align_window_set, load_window_set,
                               open_window_set)
from eegadapt.training import predict

from helpers import force_forward_chunk, traced_peak

# 41 windows and a test split of 9: chunks of 4 leave a lone last row, which
# joins the chunk before it. Rows of 23 x 64 samples are read 3 at a time,
# so chunks straddle blocks.
COUNTS = ("24", "8", "9")
CHUNK, BLOCK_ROWS, ROW_BYTES = 4, 3, 23 * 64 * 8
MODEL = ["--embed-dim", "16", "--encoder-layers", "1", "--heads", "2",
         "--patch-len", "16", "--epochs", "1", "--batch", "16", "--seed", "0"]


def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv[0]


@pytest.fixture(scope="module")
def aligned(tmp_path_factory):
    """A mix-aligned set of 41 windows of 23 x 64, a checkpoint trained on
    every class and one trained on classes 0 and 2."""
    root = tmp_path_factory.mktemp("streaming")
    run("synth", "--out", root / "d", "--classes", "4", "--channels", "8",
        "--timesteps", "128", "--train", COUNTS[0], "--val", COUNTS[1],
        "--test", COUNTS[2], "--train-subjects", "4", "--val-subjects", "2",
        "--test-subjects", "3", "--seed", "3")
    run("preprocess", "--manifest", root / "d" / "manifest.json", "--window", "128",
        "--out", root / "w.wset")
    run("align", "--windows", root / "w.wset", "--mode", "mix", "--montage",
        root / "d" / "montage_map.txt", "--target-len", "64", "--out",
        root / "a.wset")
    for name, extra in (("all.ckpt", []), ("some.ckpt", ["--train-classes", "0,2"])):
        run("train", "--windows", root / "a.wset", "--mode", "mix", *MODEL, *extra,
            "--out-checkpoint", root / name)
    return root


def set_blocks(monkeypatch, rows):
    monkeypatch.setattr(fileio, "_BLOCK_BYTES", rows * ROW_BYTES)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("ckpt, split", [("all.ckpt", "all"), ("all.ckpt", "test"),
                                         ("some.ckpt", "all")],
                         ids=["all-rows", "test-split", "train-classes"])
def test_streamed_eval_gives_the_bytes_of_predict(aligned, workers, monkeypatch,
                                                  tmp_path, count, ckpt, split):
    workers(count)
    set_blocks(monkeypatch, BLOCK_ROWS)
    checkpoint = load_checkpoint(aligned / ckpt)
    force_forward_chunk(monkeypatch, CHUNK, checkpoint.model.encoder_config)
    seen = []

    def streamed_predict(model, data):
        seen.append((isinstance(data.x, StoredRows), predict(model, data)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "predict", streamed_predict)
    run("eval", "--checkpoint", aligned / ckpt, "--windows", aligned / "a.wset",
        "--split", split, "--out", tmp_path / "eval.txt")
    data = load_window_set(aligned / "a.wset").select(split, checkpoint.classes)
    assert len(data) % CHUNK == 1
    if ckpt == "some.ckpt":  # classes 0 and 2 alternate with the others
        assert len(data) < 41
    [(streamed, (preds, probs))] = seen
    expected_preds, expected_probs = predict(checkpoint.model, data)
    assert streamed
    assert preds.tobytes() == expected_preds.tobytes()
    assert probs.tobytes() == expected_probs.tobytes()


@pytest.mark.parametrize("count", [1, 2])
def test_streamed_extract_gives_the_bytes_of_embed_batch(aligned, workers,
                                                         monkeypatch, tmp_path, count):
    workers(count)
    set_blocks(monkeypatch, BLOCK_ROWS)
    checkpoint = load_checkpoint(aligned / "all.ckpt")
    force_forward_chunk(monkeypatch, CHUNK, checkpoint.model.encoder_config)
    real, seen = EegClassifier.embed_batch, []

    def embed(self, x):
        seen.append((isinstance(x, StoredRows), real(self, x)))
        return seen[-1][1]

    monkeypatch.setattr(EegClassifier, "embed_batch", embed)
    run("extract", "--checkpoint", aligned / "all.ckpt", "--windows",
        aligned / "a.wset", "--out-embeddings", tmp_path / "emb.csv")
    [(streamed, embeddings)] = seen
    x = load_window_set(aligned / "a.wset").data
    assert streamed and len(x) % CHUNK == 1
    assert embeddings.tobytes() == real(checkpoint.model, x).tobytes()


def test_streamed_align_gives_the_bytes_of_the_loaded_gather(aligned, monkeypatch,
                                                             tmp_path):
    # 16 x 128 rows read 5 at a time: the last block is short.
    monkeypatch.setattr(fileio, "_BLOCK_BYTES", 5 * 8 * 128 * 8)
    run("align", "--windows", aligned / "w.wset", "--mode", "mix", "--montage",
        aligned / "d" / "montage_map.txt", "--target-len", "64", "--out",
        tmp_path / "a.wset")
    streamed, loaded = (read_bundle(p)[1]["data"]
                        for p in (tmp_path / "a.wset", aligned / "a.wset"))
    assert streamed.tobytes() == loaded.tobytes()


def synth_montage(root):
    return load_montage(str(root / "d" / "montage_map.txt"))


def test_align_gathers_through_mix_channels(aligned, monkeypatch):
    # One gather: align_window_set hands the rows in their file to
    # mix_channels, which reads them a block at a time.
    seen = []

    def mix(data, *args):
        seen.append(isinstance(data, StoredRows))
        return montage.mix_channels(data, *args)

    monkeypatch.setattr(pipeline, "mix_channels", mix)
    set_blocks(monkeypatch, BLOCK_ROWS)
    wset, mixed = open_window_set(aligned / "w.wset"), synth_montage(aligned)
    out = align_window_set(wset, "mix", mixed, 64)
    expected = montage.mix_channels(load_window_set(aligned / "w.wset").data,
                                    wset.channel_labels, mixed, 64)
    assert seen == [True]
    assert out.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("extra", [1, -1], ids=["more-labels", "fewer-labels"])
def test_align_refuses_labels_that_do_not_match_the_rows(aligned, extra):
    wset = load_window_set(aligned / "w.wset")
    labels = wset.channel_labels + ["X1"] if extra > 0 else wset.channel_labels[:-1]
    with pytest.raises(DimensionError, match="windows, got shape"):
        align_window_set(replace(wset, channel_labels=labels), "mix",
                         synth_montage(aligned), 64)


def test_stored_rows_masked_twice_keep_the_rows_an_array_keeps(aligned, monkeypatch):
    set_blocks(monkeypatch, BLOCK_ROWS)
    stored = open_window_set(aligned / "a.wset").data
    loaded = load_window_set(aligned / "a.wset").data
    first = np.arange(len(loaded)) % 3 != 0
    second = np.arange(int(first.sum())) % 2 == 0
    twice = stored[first][second]
    rows = twice[:]
    assert twice.shape == loaded[first][second].shape
    assert rows.tobytes() == loaded[first][second].tobytes()


# ------------------------------------------------------------- corruption


def data_offset(raw: bytes) -> int:
    return 16 + struct.unpack("<Q", raw[8:16])[0]


def corrupt(raw: bytes, case: str) -> bytes:
    """``raw`` with one data sample changed: the low byte of the last
    sample flipped, the first sample set to 1e308 (both leaving the stored
    CRC stale), or the first sample set to NaN under a fixed-up CRC."""
    start, size = data_offset(raw), int(np.prod(data_spec(raw)["shape"])) * 8
    out = bytearray(raw)
    if case == "last-block-flip":
        out[start + size - 8] ^= 0x01
    else:
        value = 1e308 if case == "first-block-huge" else float("nan")
        out[start:start + 8] = struct.pack("<d", value)
    if case == "nan-valid-crc":
        out[-4:] = struct.pack("<I", zlib.crc32(bytes(out[:-4])))
    return bytes(out)


def data_spec(raw: bytes) -> dict:
    """The array spec of a window set's 'data', its first array."""
    header = json.loads(raw[16:data_offset(raw)])
    assert header["arrays"][0]["name"] == "data"
    return header["arrays"][0]


CORRUPTIONS = {
    "last-block-flip": "failed its checksum",
    "first-block-huge": "failed its checksum",
    "nan-valid-crc": "'data' contains non-finite samples",
}


def command(aligned, case, name, windows, out):
    """``name``'s argv over ``windows``, a copy of its input set corrupted as
    ``case``, writing ``out``."""
    if name == "align":
        source = aligned / "w.wset"
        argv = ["align", "--windows", windows, "--mode", "mix", "--montage",
                aligned / "d" / "montage_map.txt", "--target-len", "64", "--out", out]
    else:
        source = aligned / "a.wset"
        out_flag = "--out" if name == "eval" else "--out-embeddings"
        argv = [name, "--checkpoint", aligned / "all.ckpt", "--windows", windows,
                "--split", "all", out_flag, out]
    windows.write_bytes(corrupt(source.read_bytes(), case))
    return [str(a) for a in argv]


@pytest.fixture
def strict_forward(monkeypatch):
    """An encoder forward whose logits go non-finite on a sample of ~1e308,
    as a model's may: one refusing it as the encoder refuses such logits."""
    real = model_module.encoder_forward_batch

    def forward(h, *args, **kwargs):
        if np.abs(h).max() > 1e300:
            raise NumericError("encoder forward produced non-finite logits")
        return real(h, *args, **kwargs)

    monkeypatch.setattr(model_module, "encoder_forward_batch", forward)


@pytest.mark.parametrize("name", ["eval", "extract", "align"])
@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupt_stream_fails_in_one_line_and_writes_nothing(
        aligned, monkeypatch, strict_forward, tmp_path, capsys, case, name):
    set_blocks(monkeypatch, BLOCK_ROWS)
    out = tmp_path / "out"
    argv = command(aligned, case, name, tmp_path / "bad.wset", out)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert CORRUPTIONS[case] in err, err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.wset"]


@pytest.mark.parametrize("name", ["eval", "extract"])
def test_a_huge_sample_under_a_valid_crc_fails_the_forward(aligned, strict_forward,
                                                           tmp_path, capsys, name):
    # The same 1e308 with the CRC fixed up: the checksum failure above is
    # reported in place of the forward's own error.
    bad = tmp_path / "bad.wset"
    argv = command(aligned, "first-block-huge", name, bad, tmp_path / "out")
    raw = bad.read_bytes()
    bad.write_bytes(raw[:-4] + struct.pack("<I", zlib.crc32(raw[:-4])))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "non-finite logits" in err and "checksum" not in err, err


# ------------------------------------------------------------------ peaks


def extract_peak(root, n, tmp_path):
    """Peak of ``extract --split all`` over a set of ``n`` windows, less its
    n x D embeddings."""
    meta, arrays = read_bundle(root / "a.wset")
    take = np.arange(n) % len(arrays["data"])
    bundle = tmp_path / f"{n}.wset"
    write_bundle(bundle, {**meta, "subjects": [meta["subjects"][i] for i in take],
                          "splits": [meta["splits"][i] for i in take]},
                 [(name, array[take]) for name, array in arrays.items()])
    rc, peak = traced_peak(main, ["extract", "--checkpoint", str(root / "all.ckpt"),
                                  "--windows", str(bundle), "--out-embeddings",
                                  str(tmp_path / f"{n}.csv")])
    assert rc == 0
    dim = load_checkpoint(root / "all.ckpt").model.encoder_config.embed_dim
    return peak - n * dim * 8


def test_extract_peak_does_not_grow_with_the_windows(aligned, workers, tmp_path):
    # One worker: which chunks two workers hold at once depends on timing.
    workers(1)
    small, large = (extract_peak(aligned, n, tmp_path) for n in (100, 400))
    assert large <= 1.1 * small, (small, large)


# ------------------------------------------------------------- map_chunks


@pytest.mark.parametrize("count", [1, 2, 3])
def test_map_chunks_takes_at_most_workers_plus_one_ahead(workers, count):
    workers(count)
    taken, results = [], []

    def source():
        for i in range(40):
            taken.append(i)
            assert len(taken) - len(results) <= count + 1
            yield i

    for result in map_chunks(lambda i: 2 * i, source()):
        results.append(result)
    assert results == [2 * i for i in range(40)]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_map_chunks_takes_nothing_past_a_failed_chunk(workers, count):
    workers(count)
    taken, results = [], []

    def fail_on_three(i):
        if i == 3:
            raise DimensionError("chunk 3")
        return i

    def source():
        for i in range(40):
            taken.append(i)
            yield i

    with pytest.raises(DimensionError, match="chunk 3"):
        for result in map_chunks(fail_on_three, source()):
            results.append(result)
    assert results == [0, 1, 2]
    # Serially the failing chunk is the last taken; on the pool no more than
    # _WORKERS chunks behind it are.
    assert len(taken) == 4 if count == 1 else len(taken) <= 4 + count


# ------------------------------------------------------------------ train


def train_outputs(aligned, windows, out, *extra):
    """The bytes of the checkpoint, log and metrics ``train`` writes."""
    run("train", "--windows", windows, *MODEL, "--epochs", "2",
        "--out-checkpoint", out, *extra)
    files = [out, f"{out}.log.csv", f"{out}.metrics.txt"]
    return [open(f, "rb").read() for f in files]


TRAIN_CASES = {
    # Classes 0 and 2 alternate with the others, so the val rows kept are
    # scattered over the 3-row blocks; 12 train rows in batches of 5.
    "mix-train-classes": ("a.wset", ["--mode", "mix", "--train-classes", "0,2",
                                     "--batch", "5"]),
    "adapter": ("w.wset", ["--mode", "adapter", "--batch", "7"]),
    "raw": ("w.wset", ["--mode", "raw", "--batch", "7"]),
}


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("case", TRAIN_CASES)
def test_streamed_train_gives_the_bytes_of_the_loaded_set(aligned, workers, monkeypatch,
                                                          tmp_path, count, case):
    workers(count)
    set_blocks(monkeypatch, BLOCK_ROWS)
    name, extra = TRAIN_CASES[case]
    real_loop, real_blocks, seen, passes = cli.train_loop, fileio.BundleReader.blocks, [], []

    def loop(model, train_set, val_set, cfg):
        seen.append((isinstance(train_set.x, StoredRows), isinstance(val_set.x, StoredRows),
                     len(train_set) % cfg.batch_size))
        return real_loop(model, train_set, val_set, cfg)

    def blocks(self, *args):
        passes.append(self.path)
        return real_blocks(self, *args)

    monkeypatch.setattr(cli, "train_loop", loop)
    monkeypatch.setattr(fileio.BundleReader, "blocks", blocks)
    streamed = train_outputs(aligned, aligned / name, tmp_path / "m.ckpt", *extra)
    [(train_stored, val_stored, left)] = seen
    assert train_stored and val_stored and left
    assert passes == [aligned / name]  # one pass over the set for both epochs
    real_window_set = cli.window_set_for
    monkeypatch.setattr(cli, "window_set_for",
                        lambda *args: real_window_set(*args).in_memory())
    loaded = train_outputs(aligned, aligned / name, tmp_path / "m.ckpt", *extra)
    assert seen[1][:2] == (False, False)
    assert streamed == loaded


@pytest.fixture
def no_steps(monkeypatch):
    """Fails a test that takes a training step."""
    def step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(EegClassifier, "loss_and_grads", step)


@pytest.mark.parametrize("case", ["last-block-flip", "nan-valid-crc"])
def test_corrupt_set_fails_train_before_any_step(aligned, monkeypatch, no_steps,
                                                 tmp_path, capsys, case):
    set_blocks(monkeypatch, BLOCK_ROWS)
    bad, ckpt = tmp_path / "bad.wset", tmp_path / "m.ckpt"
    bad.write_bytes(corrupt((aligned / "a.wset").read_bytes(), case))
    assert main(["train", "--windows", str(bad), "--mode", "mix", *MODEL,
                 "--out-checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert CORRUPTIONS[case] in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.wset"]


def test_a_set_renamed_over_the_path_mid_run_trains_as_checked(aligned, monkeypatch,
                                                               tmp_path):
    set_blocks(monkeypatch, BLOCK_ROWS)
    path, other = tmp_path / "t.wset", tmp_path / "other.wset"
    path.write_bytes((aligned / "a.wset").read_bytes())
    meta, arrays = read_bundle(path)
    write_bundle(other, meta, [(k, -v if k == "data" else v) for k, v in arrays.items()])
    expected = train_outputs(aligned, path, tmp_path / "m.ckpt", "--mode", "mix")
    real_take, renamed = fileio.BundleReader.take, []

    def take(self, *args):
        if not renamed:  # after the checking pass, before the first batch
            assert self.checked
            renamed.append(other.replace(path))
        return real_take(self, *args)

    monkeypatch.setattr(fileio.BundleReader, "take", take)
    assert train_outputs(aligned, path, tmp_path / "m.ckpt", "--mode", "mix") == expected
    assert renamed and not other.exists()


def train_peak(root, n, tmp_path):
    """Peak of one epoch of ``train --mode mix`` over a set of ``n`` train
    rows (and the fixture's val rows)."""
    meta, arrays = read_bundle(root / "a.wset")
    val = [i for i, s in enumerate(meta["splits"]) if s == "val"]
    train = [i for i, s in enumerate(meta["splits"]) if s == "train"]
    take = np.array([train[i % len(train)] for i in range(n)] + val)
    bundle = tmp_path / f"{n}.wset"
    write_bundle(bundle, {**meta, "subjects": [meta["subjects"][i] for i in take],
                          "splits": [meta["splits"][i] for i in take]},
                 [(name, array[take]) for name, array in arrays.items()])
    rc, peak = traced_peak(main, ["train", "--windows", str(bundle), "--mode", "mix",
                                  *MODEL, "--out-checkpoint", str(tmp_path / f"{n}.ckpt")])
    assert rc == 0
    return peak


def test_train_peak_does_not_grow_with_the_train_rows(aligned, workers, tmp_path):
    workers(1)
    small, large = (train_peak(aligned, n, tmp_path) for n in (100, 400))
    assert large <= 1.1 * small, (small, large)


# ---------------------------------------------------------------- allocator

FAULTS = """
import resource, sys
import numpy as np
from eegadapt.encoder import BfmConfig
from eegadapt.model import build_classifier
from eegadapt.pipeline import open_window_set

x = open_window_set(sys.argv[1]).data
model = build_classifier(BfmConfig(num_channels=23, num_classes=4, patch_len=16,
                                   embed_dim=32, num_layers=2, num_heads=4,
                                   channel_vocab=23, max_patches=7), None, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(15):
    model.embed_batch(x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_streamed_forwards_reuse_their_memory(aligned, tmp_path):
    # At the infer-mix shape, 224 windows of 23 x 112: with glibc's dynamic
    # thresholds the worker arenas trimmed each chunk's temporaries and
    # faulted them back in, 230k-880k minor faults over these calls.
    meta, arrays = read_bundle(aligned / "a.wset")
    rng = np.random.default_rng(0)
    take = np.arange(224) % len(arrays["data"])
    path = tmp_path / "infer.wset"
    write_bundle(path, {**meta, "subjects": [meta["subjects"][i] for i in take],
                        "splits": [meta["splits"][i] for i in take]},
                 [("data", rng.normal(size=(224, 23, 112))),
                  ("labels", arrays["labels"][take]),
                  ("sample_rates", arrays["sample_rates"][take])])
    src = Path(pipeline.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", FAULTS, str(path)], check=True,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert int(proc.stdout) < 20_000, proc.stdout
