"""End-to-end command-line runs on a small synthetic dataset."""

import hashlib
import json
import os
import resource
import shlex
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import eegadapt
from eegadapt import cli
from eegadapt.checkpoint import load_checkpoint
from eegadapt.cli import main
from eegadapt.fileio import (
    read_bundle,
    read_embeddings_text,
    write_bundle,
    write_recording_binary,
)
from eegadapt.model import EegClassifier, build_classifier
from eegadapt.pipeline import load_window_set
from helpers import traced_peak
from test_io import (
    MALFORMED_HEADERS,
    MALFORMED_MANIFESTS,
    basic_entry,
    break_window_set,
    write_digit_limit_manifest,
    write_malformed_manifest,
    write_manifest,
    write_raw_bundle,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    rc = main([
        "synth", "--out", str(root),
        "--classes", "4", "--channels", "8", "--timesteps", "128",
        "--fs", "200", "--train", "48", "--val", "16", "--test", "16",
        "--train-subjects", "4", "--val-subjects", "2", "--test-subjects", "2",
        "--seed", "0",
    ])
    assert rc == 0
    return root


COMMON_TRAIN = [
    "--epochs", "2", "--batch", "16", "--lr", "1e-3", "--seed", "0",
    "--embed-dim", "16", "--encoder-layers", "1", "--heads", "2",
    "--patch-len", "16",
]


@pytest.fixture(scope="module")
def mix_checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train") / "mix.ckpt"
    rc = main([
        "train", "--manifest", str(dataset / "manifest.json"),
        "--mode", "mix", "--target-len", "128",
        "--out-checkpoint", str(out), *COMMON_TRAIN,
    ])
    assert rc == 0
    return out


class TestSynthAndPreprocess:
    def test_manifest_written(self, dataset):
        assert (dataset / "manifest.json").exists()
        assert (dataset / "montage_map.txt").exists()

    def test_preprocess_writes_window_set(self, dataset, tmp_path):
        out = tmp_path / "w.wset"
        rc = main([
            "preprocess", "--manifest", str(dataset / "manifest.json"),
            "--window", "128", "--out", str(out),
        ])
        assert rc == 0
        wset = load_window_set(out)
        assert wset.data.shape == (80, 8, 128)
        assert wset.fingerprint["notch_hz"] == 50.0


    def test_failed_manifest_replace_keeps_old_manifest(self, tmp_path,
                                                        monkeypatch, capsys):
        argv = ["synth", "--out", str(tmp_path), "--channels", "2",
                "--timesteps", "64", "--train", "4", "--val", "2", "--test", "2",
                "--train-subjects", "2", "--val-subjects", "1",
                "--test-subjects", "1"]
        assert main(argv) == 0
        manifest = tmp_path / "manifest.json"
        before = manifest.read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr("eegadapt.fileio.os.replace", replace)
        assert main(argv + ["--classes", "2"]) == 2
        assert_one_line_error(capsys, "disk full")
        assert manifest.read_bytes() == before
        assert not list(tmp_path.rglob("*.tmp"))


def one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_fresh(argv, cwd, threads, preexec_fn=None):
    """``python -m eegadapt *argv`` in a new process at ``threads`` BLAS
    threads, importing this checkout's package."""
    src = str(Path(eegadapt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    subprocess.run([sys.executable, "-m", "eegadapt", *argv], cwd=cwd, env=env,
                   check=True, capture_output=True, preexec_fn=preexec_fn)


def assert_one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err, err


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS.keys())
def test_malformed_manifest_fails_in_one_line(tmp_path, case, capsys):
    path = write_malformed_manifest(tmp_path, case)
    assert main(["preprocess", "--manifest", str(path),
                 "--out", str(tmp_path / "w.wset")]) == 2
    assert_one_line_error(capsys, MALFORMED_MANIFESTS[case][1])


def test_manifest_int_beyond_the_digit_limit_fails_in_one_line(tmp_path, capsys):
    path = write_digit_limit_manifest(tmp_path)
    assert main(["preprocess", "--manifest", str(path),
                 "--out", str(tmp_path / "w.wset")]) == 2
    assert_one_line_error(capsys, "is not valid JSON")


def test_quantized_nan_fails_in_one_line(tmp_path, capsys):
    entry, _ = basic_entry(tmp_path, "q.raw", resolution=[0.5, 0.5], t=200)
    write_recording_binary(tmp_path / "q.raw", np.full((2, 200), np.nan))
    path = write_manifest(tmp_path, [entry])
    out = tmp_path / "w.wset"
    assert main(["preprocess", "--manifest", str(path), "--out", str(out)]) == 2
    assert_one_line_error(capsys, "non-finite")
    assert not out.exists()


class TestAlign:
    def test_mix_alignment(self, dataset, tmp_path):
        wpath = tmp_path / "w.wset"
        main(["preprocess", "--manifest", str(dataset / "manifest.json"),
              "--window", "128", "--out", str(wpath)])
        out = tmp_path / "aligned.wset"
        rc = main([
            "align", "--windows", str(wpath), "--mode", "mix",
            "--montage", str(dataset / "montage_map.txt"),
            "--target-len", "96", "--out", str(out),
        ])
        assert rc == 0
        aligned = load_window_set(out)
        assert aligned.data.shape == (80, 23, 96)

    def test_pass_through_mode(self, dataset, tmp_path):
        wpath = tmp_path / "w.wset"
        main(["preprocess", "--manifest", str(dataset / "manifest.json"),
              "--window", "128", "--out", str(wpath)])
        out = tmp_path / "copy.wset"
        rc = main(["align", "--windows", str(wpath), "--mode", "none",
                   "--out", str(out)])
        assert rc == 0
        np.testing.assert_array_equal(load_window_set(out).data,
                                      load_window_set(wpath).data)

    @pytest.mark.parametrize("flag,value", [("--montage", "nope.txt"),
                                            ("--target-len", "5")])
    def test_pass_through_refuses_alignment_flags(self, windows, tmp_path, capsys,
                                                  flag, value):
        # --mode none copies the set; both flags were dropped without a word.
        out = tmp_path / "copy.wset"
        assert main(["align", "--windows", str(windows), "--mode", "none",
                     flag, value, "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"--mode none ignores {flag}")
        assert not out.exists()

    def test_mix_with_more_sources_than_samples_fails(self, dataset, tmp_path,
                                                      capsys):
        wpath = tmp_path / "w.wset"
        main(["preprocess", "--manifest", str(dataset / "manifest.json"),
              "--window", "128", "--out", str(wpath)])
        rc = main([
            "align", "--windows", str(wpath), "--mode", "mix",
            "--montage", "builtin-table1", "--target-len", "3",
            "--out", str(tmp_path / "x.wset"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_repeated_electrode_label_fails(self, dataset, tmp_path, capsys):
        # Two rows named alike once whitespace is stripped: the gather could
        # only pick one of them silently.
        data = tmp_path / "d"
        shutil.copytree(dataset, data)
        doc = json.loads((data / "manifest.json").read_text())
        for entry in doc["recordings"]:
            entry["channel_labels"][1] = entry["channel_labels"][0] + " "
        (data / "manifest.json").write_text(json.dumps(doc))
        wpath = tmp_path / "w.wset"
        assert main(["preprocess", "--manifest", str(data / "manifest.json"),
                     "--window", "128", "--out", str(wpath)]) == 0
        out = tmp_path / "a.wset"
        assert main(["align", "--windows", str(wpath), "--mode", "select",
                     "--montage", str(data / "montage_map.txt"),
                     "--out", str(out)]) == 2
        label = doc["recordings"][0]["channel_labels"][0]
        assert_one_line_error(capsys, f"{label!r} appears more than once")
        assert not out.exists()

    def test_zero_target_len_rejected(self, dataset, tmp_path, capsys):
        wpath = tmp_path / "w.wset"
        main(["preprocess", "--manifest", str(dataset / "manifest.json"),
              "--window", "128", "--out", str(wpath)])
        out = tmp_path / "x.wset"
        rc = main([
            "align", "--windows", str(wpath), "--mode", "mix",
            "--montage", str(dataset / "montage_map.txt"),
            "--target-len", "0", "--out", str(out),
        ])
        assert rc == 2
        assert "target_len" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def windows(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-windows") / "w.wset"
    assert main(["preprocess", "--manifest", str(dataset / "manifest.json"),
                 "--window", "128", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def subject_windows(tmp_path_factory):
    """Window set with one class per subject, so subject-level eval applies."""
    root = tmp_path_factory.mktemp("cli-subject-data")
    assert main([
        "synth", "--out", str(root), "--classes", "4", "--channels", "8",
        "--timesteps", "128", "--train", "24", "--val", "8", "--test", "8",
        "--train-subjects", "4", "--val-subjects", "2", "--test-subjects", "2",
        "--labels", "per-subject", "--seed", "0",
    ]) == 0
    path = root / "w.wset"
    assert main(["preprocess", "--manifest", str(root / "manifest.json"),
                 "--window", "128", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("case", ["zero-rate", "infinite-rate",
                                  "missing-channel-label",
                                  "no-subjects", "short-splits", "nonfinite-data",
                                  "unknown-label", "fractional-label",
                                  "nonfinite-label", "negative-class-index",
                                  "sparse-class-index", "subject-not-str",
                                  "subject-nul", "unknown-split"])
def test_malformed_window_set_fails_in_one_line(dataset, windows, mix_checkpoint,
                                                tmp_path, case, capsys):
    broken = tmp_path / "broken.wset"
    break_window_set(windows, broken, case)
    for argv in (
        ["align", "--windows", str(broken), "--mode", "mix",
         "--montage", str(dataset / "montage_map.txt"),
         "--out", str(tmp_path / "a.wset")],
        ["train", "--windows", str(broken), "--mode", "adapter",
         "--out-checkpoint", str(tmp_path / "m.ckpt"), *COMMON_TRAIN],
        ["eval", "--checkpoint", str(mix_checkpoint), "--windows", str(broken)],
    ):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("case", ["checkpoint-as-windows", "windows-as-checkpoint",
                                  "windows-version-2"])
def test_wrong_document_fails_in_one_line(windows, mix_checkpoint, tmp_path, case,
                                          capsys):
    """A bundle of another kind or version is refused as a bundle, by name."""
    train = ["train", "--mode", "adapter", "--out-checkpoint",
             str(tmp_path / "m.ckpt"), *COMMON_TRAIN, "--windows"]
    if case == "checkpoint-as-windows":
        argv, wanted = [*train, str(mix_checkpoint)], "window-set"
    elif case == "windows-as-checkpoint":
        argv = ["eval", "--checkpoint", str(windows), "--windows", str(windows)]
        wanted = "checkpoint"
    else:
        meta, arrays = read_bundle(windows)
        write_bundle(tmp_path / "v2.wset", {**meta, "version": 2},
                     list(arrays.items()))
        argv, wanted = [*train, str(tmp_path / "v2.wset")], "window-set"
    assert main(argv) == 2
    assert_one_line_error(capsys, f"is not a version-1 {wanted}")


class TestTrain:
    def test_mix_mode_outputs(self, mix_checkpoint):
        assert mix_checkpoint.exists()
        log = mix_checkpoint.with_name(mix_checkpoint.name + ".log.csv")
        metrics = mix_checkpoint.with_name(mix_checkpoint.name + ".metrics.txt")
        assert log.exists() and metrics.exists()
        log_text = log.read_text()
        assert log_text.startswith("# eegadapt")
        assert "epoch,train_loss,train_acc,val_loss,val_acc" in log_text
        assert "flag.seed = 0" in log_text
        metrics_text = metrics.read_text()
        assert "accuracy = " in metrics_text
        assert "# command = train" in metrics_text

    def test_determinism_byte_identical_outputs(self, dataset, tmp_path):
        outputs = []
        for run in ("a", "b"):
            ckpt = tmp_path / run / "m.ckpt"
            ckpt.parent.mkdir()
            rc = main([
                "train", "--manifest", str(dataset / "manifest.json"),
                "--mode", "raw", "--out-checkpoint", str(ckpt), *COMMON_TRAIN,
            ])
            assert rc == 0
            log = (ckpt.parent / (ckpt.name + ".log.csv")).read_text()
            metrics = (ckpt.parent / (ckpt.name + ".metrics.txt")).read_text()
            # The output path differs between runs; mask that one flag line.
            log = "\n".join(l for l in log.splitlines()
                            if not l.startswith("# flag.out_checkpoint"))
            metrics = "\n".join(l for l in metrics.splitlines()
                                if not l.startswith("# flag.out_checkpoint"))
            outputs.append((log, metrics))
        assert outputs[0] == outputs[1]

    def test_failed_log_replace_keeps_old_log(self, windows, tmp_path,
                                              monkeypatch):
        argv = ["train", "--windows", str(windows), "--mode", "adapter",
                "--out-checkpoint", str(tmp_path / "m.ckpt"), *COMMON_TRAIN]
        assert main(argv) == 0
        log = tmp_path / "m.ckpt.log.csv"
        before = log.read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".log.csv"):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr("eegadapt.fileio.os.replace", replace)
        assert main(argv + ["--seed", "1"]) == 2
        assert log.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.ckpt", "m.ckpt.log.csv", "m.ckpt.metrics.txt"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_fresh_processes_write_identical_bytes(self, subject_windows,
                                                   tmp_path, threads):
        # The determinism contract: the same seed, flags and numpy/BLAS build
        # give the same bytes in every new process, for train's outputs and
        # for the eval and extract passes over its checkpoint, whatever the
        # BLAS thread count and the number of CPUs. BLAS is held at one
        # thread; the model spreads its chunks over every CPU the process
        # may run on, and OpenBLAS would cap its own threads at those CPUs.
        def run_chain(run, threads, preexec_fn=None):
            run_dir = tmp_path / run
            run_dir.mkdir()
            shutil.copy(subject_windows, run_dir / "w.wset")
            for argv in (
                ["train", "--windows", "w.wset", "--mode", "adapter",
                 "--out-checkpoint", "m.ckpt", *COMMON_TRAIN, "--epochs", "1"],
                ["eval", "--checkpoint", "m.ckpt", "--windows", "w.wset",
                 "--subject-level", "--out", "eval.txt"],
                ["extract", "--checkpoint", "m.ckpt", "--windows", "w.wset",
                 "--out-embeddings", "emb.csv"],
            ):
                run_fresh(argv, run_dir, threads, preexec_fn)
            return {
                name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                for name in ("m.ckpt", "m.ckpt.log.csv", "m.ckpt.metrics.txt",
                             "eval.txt", "emb.csv")}

        # Each case compares a fresh run at its own thread count, free and
        # pinned to one CPU, with a run at one BLAS thread.
        first = run_chain("blas-1", "1")
        assert run_chain(f"blas-{threads}-fresh", threads) == first
        assert run_chain(f"blas-{threads}-one-cpu", threads, one_cpu) == first

    @staticmethod
    def preprocess_free_and_pinned(tmp_path, timesteps, counts):
        """SHA-256 of the window set that ``preprocess`` writes in a fresh
        process, free and pinned to one CPU, from synthetic 8-channel
        recordings of ``timesteps`` samples, (train, val, test) ``counts``."""
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--channels", "8",
                     "--timesteps", str(timesteps), "--train", str(counts[0]),
                     "--val", str(counts[1]), "--test", str(counts[2]),
                     "--train-subjects", "4", "--seed", "0"]) == 0
        hashes = []
        for run, preexec_fn in (("free", None), ("one-cpu", one_cpu)):
            (tmp_path / run).mkdir()
            run_fresh(["preprocess", "--manifest", str(data / "manifest.json"),
                       "--window", "128", "--out", "w.wset"],
                      tmp_path / run, "1", preexec_fn)
            hashes.append(hashlib.sha256(
                (tmp_path / run / "w.wset").read_bytes()).hexdigest())
        return hashes

    def test_fresh_processes_preprocess_identical_bytes(self, tmp_path):
        # 16 recordings of 8 x 2048 samples, one per task: free, a fresh
        # process spreads them over every CPU it may use, and pinned to one
        # CPU it runs them in turn. Both write the same window set.
        free, pinned = self.preprocess_free_and_pinned(tmp_path, 2048, (8, 4, 4))
        assert free == pinned

    def test_fresh_processes_preprocess_groups_identical_bytes(self, tmp_path):
        # 100 recordings of 8 x 256 samples: each task filters a group of 3
        # (the last one alone), the same bytes free and pinned to one CPU.
        free, pinned = self.preprocess_free_and_pinned(tmp_path, 256, (50, 25, 25))
        assert free == pinned

    def test_mode_parity_all_four_run(self, dataset, tmp_path):
        for mode in ("adapter", "select", "mix", "raw"):
            args = [
                "train", "--manifest", str(dataset / "manifest.json"),
                "--mode", mode, "--out-checkpoint",
                str(tmp_path / f"{mode}.ckpt"),
                "--epochs", "1", "--batch", "16", "--seed", "0",
                "--embed-dim", "16", "--encoder-layers", "1", "--heads", "2",
                "--patch-len", "16", "--window", "128",
            ]
            if mode in ("select", "mix"):
                args += ["--target-len", "128"]
            assert main(args) == 0, mode

    def test_conflicting_inputs_rejected(self, dataset, capsys):
        rc = main(["train", "--mode", "raw", "--out-checkpoint", "/tmp/x.ckpt"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err


class TestEval:
    def test_huge_layer_count_refused_without_allocating(self, windows,
                                                         mix_checkpoint, tmp_path):
        # 2**70 layers would be drawn until memory ran out; the child gets a
        # 2 GiB address-space limit so a regression fails here with a
        # traceback instead of exhausting the machine.
        meta, arrays = read_bundle(mix_checkpoint)
        meta["encoder_config"]["num_layers"] = 2 ** 70
        bad = tmp_path / "bad.ckpt"
        write_bundle(bad, meta, list(arrays.items()))
        src = str(Path(eegadapt.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "eegadapt", "eval", "--checkpoint", str(bad),
             "--windows", str(windows)],
            env=env, preexec_fn=limit_memory, capture_output=True, text=True,
            timeout=600)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "do not match the stored configs" in proc.stderr

    def test_missing_checkpoint_fails_to_stderr(self, dataset, capsys):
        rc = main([
            "eval", "--checkpoint", "/nonexistent/m.ckpt",
            "--manifest", str(dataset / "manifest.json"),
        ])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_checkpoint_fails_in_one_line(self, dataset, mix_checkpoint,
                                                    tmp_path, capsys):
        meta, arrays = read_bundle(mix_checkpoint)
        del meta["encoder_config"]
        bad = tmp_path / "bad.ckpt"
        write_bundle(bad, meta, list(arrays.items()))
        rc = main([
            "eval", "--checkpoint", str(bad),
            "--manifest", str(dataset / "manifest.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "encoder_config" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("header", MALFORMED_HEADERS.values(),
                             ids=MALFORMED_HEADERS.keys())
    def test_malformed_bundle_header_fails_in_one_line(self, dataset, tmp_path,
                                                       header, capsys):
        bad = tmp_path / "bad.ckpt"
        write_raw_bundle(bad, header, payload=bytes(8))
        rc = main([
            "eval", "--checkpoint", str(bad),
            "--manifest", str(dataset / "manifest.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("key,value", [
        ("notch_hz", None), ("window_len", None), ("target_len", None),
        ("alignment", None), ("band_order", True), ("window_len", "128"),
    ], ids=["no-notch_hz", "no-window_len", "no-target_len", "no-alignment",
            "bool-band_order", "str-window_len"])
    def test_fingerprint_without_setting_fails_in_one_line(
            self, dataset, mix_checkpoint, tmp_path, key, value, capsys):
        meta, arrays = read_bundle(mix_checkpoint)
        if value is None:
            del meta["fingerprint"][key]
        else:
            meta["fingerprint"][key] = value
        bad = tmp_path / "bad.ckpt"
        write_bundle(bad, meta, list(arrays.items()))
        rc = main(["eval", "--checkpoint", str(bad),
                   "--manifest", str(dataset / "manifest.json")])
        assert rc == 2
        assert_one_line_error(capsys, key)

    def test_eval_writes_report(self, dataset, mix_checkpoint, tmp_path):
        out = tmp_path / "report.txt"
        rc = main([
            "eval", "--checkpoint", str(mix_checkpoint),
            "--manifest", str(dataset / "manifest.json"),
            "--split", "test", "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert "metrics-report v1" in text
        assert "confusion (rows true, cols predicted):" in text

    def test_subject_level_block(self, tmp_path):
        # Clinical-style data: one class per subject, so subject-level
        # aggregation is well defined.
        rc = main([
            "synth", "--out", str(tmp_path / "d"),
            "--classes", "2", "--channels", "4", "--timesteps", "64",
            "--fs", "200", "--train", "24", "--val", "8", "--test", "8",
            "--train-subjects", "4", "--val-subjects", "2",
            "--test-subjects", "2", "--labels", "per-subject", "--seed", "3",
        ])
        assert rc == 0
        ckpt = tmp_path / "m.ckpt"
        rc = main([
            "train", "--manifest", str(tmp_path / "d" / "manifest.json"),
            "--mode", "raw", "--window", "64", "--epochs", "1",
            "--batch", "8", "--seed", "0", "--embed-dim", "16",
            "--encoder-layers", "1", "--heads", "2", "--patch-len", "16",
            "--out-checkpoint", str(ckpt),
        ])
        assert rc == 0
        out = tmp_path / "report.txt"
        rc = main([
            "eval", "--checkpoint", str(ckpt),
            "--manifest", str(tmp_path / "d" / "manifest.json"),
            "--split", "test", "--subject-level", "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert "subject-level:" in text
        assert "votes=" in text

    def test_unaligned_data_for_aligned_checkpoint_rejected(
            self, dataset, mix_checkpoint, tmp_path, capsys):
        wpath = tmp_path / "w.wset"
        main(["preprocess", "--manifest", str(dataset / "manifest.json"),
              "--window", "128", "--out", str(wpath)])
        rc = main([
            "eval", "--checkpoint", str(mix_checkpoint),
            "--windows", str(wpath), "--split", "test",
        ])
        assert rc == 2
        assert "align" in capsys.readouterr().err

    def test_fingerprint_mismatch_rejected(self, dataset, mix_checkpoint,
                                           tmp_path, capsys):
        # Same alignment mode but a different window length must be refused.
        wpath = tmp_path / "w64.wset"
        main(["preprocess", "--manifest", str(dataset / "manifest.json"),
              "--window", "64", "--out", str(wpath)])
        aligned = tmp_path / "a64.wset"
        main(["align", "--windows", str(wpath), "--mode", "mix",
              "--montage", str(dataset / "montage_map.txt"),
              "--target-len", "128", "--out", str(aligned)])
        rc = main([
            "eval", "--checkpoint", str(mix_checkpoint),
            "--windows", str(aligned), "--split", "test",
        ])
        assert rc == 2
        assert "fingerprint" in capsys.readouterr().err


class TestExtractAndZeroshot:
    def test_extract_then_zeroshot(self, dataset, mix_checkpoint, tmp_path):
        emb_path = tmp_path / "emb.csv"
        rc = main([
            "extract", "--checkpoint", str(mix_checkpoint),
            "--manifest", str(dataset / "manifest.json"),
            "--split", "all", "--out-embeddings", str(emb_path),
        ])
        assert rc == 0
        emb, labels, subjects = read_embeddings_text(emb_path)
        assert emb.shape == (80, 16)
        assert set(labels.tolist()) == {0, 1, 2, 3}

        report = tmp_path / "zs.txt"
        rc = main([
            "zeroshot", "--embeddings", str(emb_path),
            "--held-out-classes", "2,3", "--fit-fraction", "0.5",
            "--knn-k", "3", "--seed", "0", "--out", str(report),
        ])
        assert rc == 0
        text = report.read_text()
        assert "zeroshot-report v1" in text
        for name in ("svm", "knn", "kmeans"):
            assert any(line.startswith(name) for line in text.splitlines())

    def test_readme_zero_shot_chain(self, dataset, windows, tmp_path):
        # Train on a class subset, score the head on its own classes, then
        # embed every window, unseen classes included, and run zero-shot on
        # the classes the head never saw.
        manifest = str(dataset / "manifest.json")
        ckpt = str(tmp_path / "subset.ckpt")
        assert main(["train", "--manifest", manifest, "--mode", "adapter",
                     "--train-classes", "0,2", "--out-checkpoint", ckpt,
                     *COMMON_TRAIN]) == 0
        wset = load_window_set(windows)
        seen = wset.mask("test") & np.isin(wset.labels, [0, 2])
        report = tmp_path / "report.txt"
        assert main(["eval", "--checkpoint", ckpt, "--manifest", manifest,
                     "--split", "test", "--out", str(report)]) == 0
        assert f"samples = {int(seen.sum())}\n" in report.read_text()

        emb_path = tmp_path / "emb.csv"
        assert main(["extract", "--checkpoint", ckpt, "--manifest", manifest,
                     "--split", "all", "--out-embeddings", str(emb_path)]) == 0
        emb, labels, _ = read_embeddings_text(emb_path)
        assert emb.shape[0] == len(wset)
        assert set(labels.tolist()) == {0, 1, 2, 3}
        assert main(["zeroshot", "--embeddings", str(emb_path),
                     "--held-out-classes", "1,3",
                     "--out", str(tmp_path / "zs.txt")]) == 0

    def test_zeroshot_deterministic(self, dataset, mix_checkpoint, tmp_path):
        emb_path = tmp_path / "emb.csv"
        main([
            "extract", "--checkpoint", str(mix_checkpoint),
            "--manifest", str(dataset / "manifest.json"),
            "--split", "all", "--out-embeddings", str(emb_path),
        ])
        texts = []
        for run in ("a", "b"):
            report = tmp_path / f"zs_{run}.txt"
            main([
                "zeroshot", "--embeddings", str(emb_path),
                "--held-out-classes", "2,3", "--seed", "7",
                "--out", str(report),
            ])
            texts.append("\n".join(
                l for l in report.read_text().splitlines()
                if not l.startswith("# flag.out")
            ))
        assert texts[0] == texts[1]


@pytest.mark.parametrize("flag,value", [
    ("--held-out-classes", "a,b"), ("--train-classes", "x"),
    ("--auto-split", "0.5,x,0.5"),
])
def test_bad_list_flag_fails_in_one_line(dataset, windows, tmp_path, flag, value,
                                         capsys):
    if flag == "--held-out-classes":
        emb = tmp_path / "e.csv"
        emb.write_text("0.0,1.0,0,a\n")
        argv = ["zeroshot", "--embeddings", str(emb)]
    else:
        source = (["--manifest", str(dataset / "manifest.json")]
                  if flag == "--auto-split" else ["--windows", str(windows)])
        argv = ["train", "--mode", "raw", *source,
                "--out-checkpoint", str(tmp_path / "m.ckpt")]
    assert main([*argv, flag, value]) == 2
    assert_one_line_error(capsys, flag)


@pytest.mark.parametrize("command, flags", [
    ("eval", ["--split", "test"]),
    ("extract", ["--split", "all", "--out-embeddings", "emb.csv"]),
])
def test_loaded_window_set_is_dropped_before_the_forward(
        dataset, mix_checkpoint, tmp_path, monkeypatch, command, flags):
    # The loaded set must not stay alive beside the split while the model
    # runs; a split of every row holds only its arrays.
    loaded, alive = [], []
    real_window_set = cli.window_set_for
    real_forward = EegClassifier.forward_batch

    def window_set(*args):
        wset = real_window_set(*args)
        loaded.append(weakref.ref(wset))
        return wset

    def forward(self, x):
        alive.append(loaded[0]() is not None)
        return real_forward(self, x)

    monkeypatch.setattr(cli, "window_set_for", window_set)
    monkeypatch.setattr(EegClassifier, "forward_batch", forward)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--checkpoint", str(mix_checkpoint),
                 "--manifest", str(dataset / "manifest.json"), *flags]) == 0
    assert alive == [False]


@pytest.fixture(scope="module")
def prep_mix(tmp_path_factory):
    """64 recordings of 16 x 2048 cut into 512 windows of 256 (16.8 MB),
    the set mix-aligned to 23 x 112 (10.06 MiB) and a checkpoint for it."""
    root = tmp_path_factory.mktemp("prep-mix")
    for argv in (
        ["synth", "--out", root / "d", "--channels", "16", "--timesteps", "2048",
         "--train", "48", "--val", "8", "--test", "8", "--seed", "1"],
        ["preprocess", "--manifest", root / "d" / "manifest.json", "--window", "256",
         "--out", root / "w.wset"],
        ["align", "--windows", root / "w.wset", "--mode", "mix", "--montage",
         root / "d" / "montage_map.txt", "--target-len", "112", "--out",
         root / "a.wset"],
        ["train", "--windows", root / "a.wset", "--mode", "mix", "--out-checkpoint",
         root / "m.ckpt", *COMMON_TRAIN, "--epochs", "1", "--batch", "64"],
    ):
        assert main([str(a) for a in argv]) == 0, argv[0]
    return root


PREP_MIX_ALIGNED = 512 * 23 * 112 * 8


def test_manifest_eval_peaks_near_the_aligned_set(prep_mix, workers):
    # eval --manifest aligns each recording's windows in its own task and
    # holds the aligned set: it peaked at 14.85 MiB. Its ceiling stays 1.1x
    # the 14.74 MiB that eval --windows peaked at while it read the whole
    # set, 1.61x the set. eval --windows streams the rows: a few chunks, the
    # forward's working set and the outputs.
    workers(2)
    peaks = {}
    for flag, source in (("--windows", "a.wset"), ("--manifest", "d/manifest.json")):
        rc, peaks[flag] = traced_peak(main, ["eval", "--checkpoint",
                                             str(prep_mix / "m.ckpt"), flag,
                                             str(prep_mix / source), "--split", "all"])
        assert rc == 0
    assert peaks["--manifest"] <= 1.61 * PREP_MIX_ALIGNED
    assert peaks["--windows"] <= 0.75 * PREP_MIX_ALIGNED


def test_align_peaks_near_the_aligned_set(prep_mix, tmp_path):
    # The input is read a block at a time into the aligned array; holding
    # the loaded input beside it peaked at 2.6x.
    rc, peak = traced_peak(main, [
        "align", "--windows", str(prep_mix / "w.wset"), "--mode", "mix",
        "--montage", str(prep_mix / "d" / "montage_map.txt"), "--target-len", "112",
        "--out", str(tmp_path / "a.wset")])
    assert rc == 0
    assert peak <= 1.15 * PREP_MIX_ALIGNED
    streamed, loaded = (read_bundle(path)[1] for path in (tmp_path / "a.wset",
                                                          prep_mix / "a.wset"))
    assert all(streamed[k].tobytes() == loaded[k].tobytes() for k in loaded)


@pytest.mark.parametrize("montage,needle", [
    ("nope.txt", "montage map file not found: nope.txt"),
    ("builtin-table1", "--montage builtin-table1 is not the montage"),
    ("MAP", None),
], ids=["missing", "other", "same"])
@pytest.mark.parametrize("command,out_flag", [("eval", "--out"),
                                              ("extract", "--out-embeddings")])
def test_windows_refuse_a_montage_they_were_not_aligned_with(
        dataset, windows, mix_checkpoint, tmp_path, capsys, command, out_flag,
        montage, needle):
    # Only the --manifest path read --montage; with --windows it was dropped.
    aligned = tmp_path / "aligned.wset"
    montage_map = str(dataset / "montage_map.txt")
    assert main(["align", "--windows", str(windows), "--mode", "mix",
                 "--montage", montage_map, "--target-len", "128",
                 "--out", str(aligned)]) == 0
    out = tmp_path / "out.txt"
    rc = main([command, "--checkpoint", str(mix_checkpoint), "--windows",
               str(aligned), "--montage", montage_map if montage == "MAP" else montage,
               out_flag, str(out)])
    if needle is None:
        assert rc == 0 and out.exists()
    else:
        assert rc == 2
        assert_one_line_error(capsys, needle)
        assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
def test_non_finite_optimizer_setting_fails_in_one_line(windows, tmp_path, capsys,
                                                        flag, value):
    # NaN is not below 0, so a range check alone let a NaN rate through to a
    # full step that then failed on the logits, naming neither flag.
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--mode", "raw", "--windows", str(windows),
                 "--out-checkpoint", str(ckpt), *COMMON_TRAIN,
                 f"{flag}={value}"]) == 2
    field = {"--lr": "learning_rate", "--weight-decay": "weight_decay"}[flag]
    assert_one_line_error(capsys, f"{field} must be finite, got {value}")
    assert not list(tmp_path.iterdir())


def test_auto_split_with_windows_fails_in_one_line(windows, tmp_path, capsys):
    # A window set carries its splits; --auto-split would be silently dropped.
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--mode", "raw", "--windows", str(windows),
                 "--auto-split", "0.6,0.2,0.2", "--out-checkpoint", str(ckpt),
                 *COMMON_TRAIN]) == 2
    assert_one_line_error(capsys, "--auto-split", "--windows")
    assert not ckpt.exists()


@pytest.mark.parametrize("flags,needle", [
    (["--target-len", "64"], "--target-len 64"),
    (["--montage", "does-not-exist.txt"], "montage map file not found"),
    (["--montage", "builtin-table1"], "--montage builtin-table1"),
    (["--target-len", "128", "--montage", "MAP"], None),
], ids=["other-length", "missing-montage", "other-montage", "same-alignment"])
def test_aligned_window_set_refuses_other_alignment_flags(
        dataset, windows, tmp_path, capsys, flags, needle):
    # An aligned set keeps the length and montage it was aligned with; a flag
    # asking for others was silently dropped and training ran on the set.
    aligned = tmp_path / "aligned.wset"
    montage = str(dataset / "montage_map.txt")
    assert main(["align", "--windows", str(windows), "--mode", "mix",
                 "--montage", montage, "--target-len", "128",
                 "--out", str(aligned)]) == 0
    out = tmp_path / "run"
    out.mkdir()
    flags = [montage if f == "MAP" else f for f in flags]
    rc = main(["train", "--windows", str(aligned), "--mode", "mix", *flags,
               "--out-checkpoint", str(out / "m.ckpt"), *COMMON_TRAIN])
    if needle is None:
        assert rc == 0
        assert (out / "m.ckpt").exists()
    else:
        assert rc == 2
        assert_one_line_error(capsys, needle)
        assert not list(out.iterdir())


def test_extract_refuses_comma_subject_ids_before_the_forward(
        dataset, mix_checkpoint, tmp_path, monkeypatch, capsys):
    data = tmp_path / "d"
    shutil.copytree(dataset, data)
    doc = json.loads((data / "manifest.json").read_text())
    for entry in doc["recordings"]:
        entry["subject_id"] = entry["subject_id"] + ",x"
    (data / "manifest.json").write_text(json.dumps(doc))
    forwards = []
    real_forward = EegClassifier.forward_batch

    def forward(self, x):
        forwards.append(len(x))
        return real_forward(self, x)

    monkeypatch.setattr(EegClassifier, "forward_batch", forward)
    out = tmp_path / "emb.csv"
    assert main(["extract", "--checkpoint", str(mix_checkpoint),
                 "--manifest", str(data / "manifest.json"),
                 "--out-embeddings", str(out)]) == 2
    assert_one_line_error(capsys, "subject ids must not contain commas or newlines")
    assert forwards == []
    assert not out.exists()


def test_ragged_embeddings_fail_in_one_line(tmp_path, capsys):
    emb = tmp_path / "e.csv"
    emb.write_text("0.0,1.0,0,a\n0.0,1.0,2.0,1,b\n")
    assert main(["zeroshot", "--embeddings", str(emb),
                 "--held-out-classes", "0,1"]) == 2
    assert_one_line_error(capsys, "first row")


@pytest.mark.parametrize("flag,value,needle", [
    ("--classes", "0", "num_classes"), ("--classes", "-1", "num_classes"),
    ("--train-subjects", "0", "subjects"), ("--val-subjects", "0", "subjects"),
    ("--test-subjects", "0", "subjects"), ("--channels", "0", "channels"),
    ("--timesteps", "0", "timesteps"), ("--train", "-1", "counts"),
    ("--fs", "0", "sample_rate_hz"), ("--fs", "nan", "sample_rate_hz"),
    ("--noise", "-1", "noise"),
])
def test_bad_synth_flag_fails_in_one_line(tmp_path, flag, value, needle, capsys):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), "--train", "8", "--val", "4",
                 "--test", "4", flag, value]) == 2
    assert_one_line_error(capsys, needle)
    assert not out.exists()


@pytest.mark.parametrize("mode,flag,value,needle", [
    ("adapter", "--patch-len", "0", "--patch-len"),
    ("adapter", "--adapter-steps", "0", "--adapter-steps"),
    ("raw", "--patch-len", "0", "--patch-len"),
    ("raw", "--heads", "0", "num_heads"),
])
def test_bad_model_flag_fails_in_one_line(windows, tmp_path, mode, flag, value,
                                          needle, capsys):
    argv = ["train", "--windows", str(windows), "--mode", mode,
            "--out-checkpoint", str(tmp_path / "m.ckpt"), *COMMON_TRAIN]
    assert main([*argv, flag, value]) == 2
    assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("mode,flag,value", [
    ("raw", "--target-len", "64"),
    ("adapter", "--target-len", "128"),
    ("raw", "--montage", "builtin-table1"),
    ("adapter", "--montage", "builtin-table1"),
    ("mix", "--adapter-steps", "112"),
    ("raw", "--adapter-steps", "112"),
])
def test_flag_the_mode_ignores_fails_in_one_line(windows, tmp_path, mode, flag,
                                                  value, capsys):
    # Only select and mix align, and only adapter has an adapter; such a
    # flag trained on the set's own shape and exited 0 without a word.
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--windows", str(windows), "--mode", mode, flag, value,
                 "--out-checkpoint", str(ckpt), *COMMON_TRAIN]) == 2
    assert_one_line_error(capsys, f"--mode {mode} ignores {flag}")
    assert not ckpt.exists()


@pytest.mark.parametrize("flag, value", [
    ("--notch", "60"), ("--notch-q", "30"), ("--band-low", "1"), ("--band-high", "40"),
    ("--order", "2"), ("--window", "64"), ("--window", "128")])
@pytest.mark.parametrize("mode", ["raw", "mix"])
def test_filter_flag_with_windows_fails_in_one_line(windows, tmp_path, mode, flag,
                                                    value, capsys):
    # A window set was filtered and windowed when it was made: such a flag,
    # even at its default, trained on the set as stored and wrote the
    # defaults into the fingerprint, exiting 0.
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--windows", str(windows), "--mode", mode, flag, value,
                 "--out-checkpoint", str(ckpt), *COMMON_TRAIN]) == 2
    assert_one_line_error(capsys, f"--windows ignores {flag}")
    assert list(tmp_path.iterdir()) == []


def test_filter_flags_not_given_keep_their_default_lines(dataset, windows, tmp_path):
    # The flags parse as None when not given, then take the defaults the
    # header has always shown.
    for source in (["--windows", str(windows)],
                   ["--manifest", str(dataset / "manifest.json")]):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", *source, "--mode", "raw", "--out-checkpoint", str(ckpt),
                     *COMMON_TRAIN, "--epochs", "1"]) == 0
        log = Path(f"{ckpt}.log.csv").read_text()
        for line in ("flag.notch = 50.0", "flag.notch_q = 30.0", "flag.band_low = 0.1",
                     "flag.band_high = 75.0", "flag.order = 4", "flag.window = 128"):
            assert f"# {line}\n" in log
        assert load_checkpoint(ckpt).fingerprint["window_len"] == 128


@pytest.mark.parametrize("argv", [
    ["zeroshot", "--embeddings", "BAD", "--held-out-classes", "0,1"],
    ["preprocess", "--manifest", "BAD", "--out", "OUT"],
    ["align", "--windows", "WINDOWS", "--montage", "BAD", "--out", "OUT"],
], ids=["embeddings", "manifest", "montage"])
def test_non_utf8_text_input_fails_in_one_line(windows, tmp_path, argv, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + "0,1,a\n".encode("utf-16-le"))
    out = tmp_path / "out"
    paths = {"BAD": str(bad), "WINDOWS": str(windows), "OUT": str(out)}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert_one_line_error(capsys, str(bad), "not UTF-8")
    assert not out.exists()


def test_out_of_range_embeddings_label_fails_in_one_line(tmp_path, capsys):
    emb = tmp_path / "e.csv"
    emb.write_text("0.0,1.0,0,a\n0.0,1.0,99999999999999999999,b\n")
    assert main(["zeroshot", "--embeddings", str(emb),
                 "--held-out-classes", "0,1"]) == 2
    assert_one_line_error(capsys, f"{emb}:2", "label")


@pytest.mark.filterwarnings("error")
def test_overflowing_embeddings_fail_in_one_line(tmp_path, capsys):
    # Finite, but its square overflows the classifiers' distances and margins.
    rng = np.random.default_rng(0)
    rows = [[float(v) for v in rng.normal(size=2) + 5.0 * (i % 2)] for i in range(20)]
    rows[3][1] = 1e308
    emb = tmp_path / "e.csv"
    emb.write_text("".join(f"{a!r},{b!r},{i % 2},s{i % 4}\n"
                           for i, (a, b) in enumerate(rows)))
    out = tmp_path / "zeroshot.txt"
    assert main(["zeroshot", "--embeddings", str(emb),
                 "--held-out-classes", "0,1", "--out", str(out)]) == 2
    assert_one_line_error(capsys, "overflow")
    assert not out.exists()


@pytest.mark.parametrize("edit,needle", [
    (lambda meta: meta["classes"].update({next(iter(meta["classes"])): 2 ** 70}),
     "classes"),
    (lambda meta: meta["encoder_config"].update(patch_len=2 ** 70),
     "malformed"),
    (lambda meta: meta["encoder_config"].update(
        patch_len=float(meta["encoder_config"]["patch_len"])),
     "patch_len must be an integer"),
], ids=["class-index-2^70", "patch_len-2^70", "patch_len-float"])
def test_huge_checkpoint_meta_value_fails_in_one_line(dataset, mix_checkpoint,
                                                      tmp_path, edit, needle,
                                                      capsys):
    meta, arrays = read_bundle(mix_checkpoint)
    edit(meta)
    bad = tmp_path / "bad.ckpt"
    write_bundle(bad, meta, list(arrays.items()))
    assert main(["eval", "--checkpoint", str(bad),
                 "--manifest", str(dataset / "manifest.json")]) == 2
    assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("flag", ["--manifest", "--windows"])
def test_huge_int_in_a_checkpoint_fingerprint_fails_in_one_line(
        dataset, windows, mix_checkpoint, tmp_path, capsys, flag):
    # An int too large for a float once escaped the filter design as an
    # OverflowError traceback.
    meta, arrays = read_bundle(mix_checkpoint)
    meta["fingerprint"]["notch_q"] = 10 ** 400
    bad, out = tmp_path / "bad.ckpt", tmp_path / "eval.txt"
    write_bundle(bad, meta, list(arrays.items()))
    source = str(dataset / "manifest.json") if flag == "--manifest" else str(windows)
    assert main(["eval", "--checkpoint", str(bad), flag, source,
                 "--out", str(out)]) == 2
    assert_one_line_error(capsys, "fingerprint 'notch_q' must fit in a float")
    assert not out.exists()


class TestAutoSplit:
    def test_unassigned_manifest_with_auto_split(self, tmp_path):
        rc = main([
            "synth", "--out", str(tmp_path / "d"),
            "--classes", "2", "--channels", "4", "--timesteps", "64",
            "--fs", "200", "--train", "30", "--val", "0", "--test", "0",
            "--train-subjects", "6", "--val-subjects", "0",
            "--test-subjects", "0", "--seed", "1",
        ])
        assert rc == 0
        # Rewrite every entry as unassigned to simulate an unsplit corpus.
        import json

        mpath = tmp_path / "d" / "manifest.json"
        doc = json.loads(mpath.read_text())
        for entry in doc["recordings"]:
            entry["split"] = "unassigned"
        mpath.write_text(json.dumps(doc))

        ckpt = tmp_path / "m.ckpt"
        rc = main([
            "train", "--manifest", str(mpath), "--mode", "raw",
            "--auto-split", "0.5,0.25,0.25", "--window", "64",
            "--epochs", "1", "--batch", "8", "--seed", "0",
            "--embed-dim", "16", "--encoder-layers", "1", "--heads", "2",
            "--patch-len", "16", "--out-checkpoint", str(ckpt),
        ])
        assert rc == 0
        assert ckpt.exists()


@pytest.mark.parametrize("message", ["", "Unable to allocate 171. GiB for an array"])
def test_allocation_failure_fails_in_one_line(dataset, windows, tmp_path, monkeypatch,
                                              capsys, message):
    # numpy raises MemoryError with the size it asked for; a bare one says
    # nothing, and the line must still say what happened.
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "align_window_set", exhausted)
    out = tmp_path / "a.wset"
    assert main(["align", "--windows", str(windows), "--mode", "mix",
                 "--montage", str(dataset / "montage_map.txt"),
                 "--out", str(out)]) == 2
    assert_one_line_error(capsys, "error: the run ran out of memory", message)
    assert not out.exists()


# ------------------------------------------- flags that reach the library


@pytest.mark.parametrize("flag, value, key", [
    ("--notch", "60", "notch_hz"), ("--notch-q", "10", "notch_q"),
    ("--band-low", "1", "band_low_hz"), ("--band-high", "40", "band_high_hz"),
    ("--order", "2", "band_order")])
def test_filter_flag_reaches_the_filters(dataset, windows, tmp_path, flag, value, key):
    out = tmp_path / "w.wset"
    assert main(["preprocess", "--manifest", str(dataset / "manifest.json"),
                 "--window", "128", flag, value, "--out", str(out)]) == 0
    wset, default = load_window_set(out), load_window_set(windows)
    kind = type(default.fingerprint[key])
    assert wset.fingerprint == {**default.fingerprint, key: kind(value)}
    assert wset.data.tobytes() != default.data.tobytes()


def test_hidden_maps_sets_the_adapter_width(windows, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--mode", "adapter", "--windows", str(windows),
                 "--hidden-maps", "8", "--out-checkpoint", str(ckpt),
                 *COMMON_TRAIN, "--epochs", "1"]) == 0
    assert read_bundle(ckpt)[1]["adapter.layers.0.w"].shape[0] == 8


def test_sgd_optimizer_trains_another_model(windows, tmp_path):
    arrays = {}
    for optimizer in ("adamw", "sgd"):
        ckpt = tmp_path / f"{optimizer}.ckpt"
        assert main(["train", "--mode", "raw", "--windows", str(windows),
                     "--optimizer", optimizer, "--out-checkpoint", str(ckpt),
                     *COMMON_TRAIN]) == 0
        arrays[optimizer] = read_bundle(ckpt)[1]
    assert any(a.tobytes() != arrays["sgd"][n].tobytes()
               for n, a in arrays["adamw"].items())
    rows = [line.split(",") for line in
            (tmp_path / "sgd.ckpt.log.csv").read_text().splitlines()
            if not line.startswith(("#", "epoch"))]
    assert len(rows) == 2 and np.all(np.isfinite(np.array(rows, dtype=float)))


def test_freeze_bfm_trains_only_the_adapter_and_head(windows, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--mode", "adapter", "--windows", str(windows),
                 "--freeze-bfm", "--out-checkpoint", str(ckpt), *COMMON_TRAIN]) == 0
    trained = load_checkpoint(ckpt).model
    initial = dict(build_classifier(trained.encoder_config, trained.adapter_config,
                                    seed=0).named_arrays())
    for name, array in trained.named_arrays():
        frozen = name.startswith("encoder.") and name not in ("encoder.head_w",
                                                              "encoder.head_b")
        assert (array.tobytes() == initial[name].tobytes()) == frozen, name


def test_module_entry_point_prints_the_version():
    src = str(Path(eegadapt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "eegadapt", "--version"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "0.1.0\n")


@pytest.mark.parametrize("command", ["synth", "preprocess", "align", "train",
                                     "eval", "extract", "zeroshot"])
def test_every_subcommand_prints_its_help(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: eegadapt {command}")


@pytest.mark.parametrize("argv", [
    ["train", "--windows", "w.wset", "--mode", "adapter", "--hidden", "8",
     "--out-checkpoint", "m.ckpt"],
    ["zeroshot", "--embed", "e.csv", "--held-out-classes", "1"],
], ids=["train-hidden", "zeroshot-embed"])
def test_flag_prefix_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "error:" in capsys.readouterr().err


def walkthrough_commands() -> list[list[str]]:
    """The argv of each ``eegadapt`` line in README's command-line walkthrough."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command-line walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("eegadapt ")]


def test_readme_walkthrough_matches_the_parser():
    commands = walkthrough_commands()
    assert [argv[0] for argv in commands] == ["synth", "preprocess", "align", "train",
                                             "eval", "extract", "zeroshot"]
    for argv in commands:
        cli.build_parser().parse_args(argv)
