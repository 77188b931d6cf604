"""End-to-end command-line runs on a small synthetic dataset."""

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eegadapt
from eegadapt.cli import main
from eegadapt.fileio import (
    read_bundle,
    read_embeddings_text,
    write_bundle,
    write_recording_binary,
)
from eegadapt.pipeline import load_window_set
from test_io import (
    MALFORMED_HEADERS,
    MALFORMED_MANIFESTS,
    basic_entry,
    break_window_set,
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
    "--patch-len", "16", "--window", "128",
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


@pytest.mark.parametrize("case", ["zero-rate", "missing-channel-label",
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
        src = str(Path(eegadapt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        def run_chain(run, threads, preexec_fn=None):
            run_dir = tmp_path / run
            run_dir.mkdir()
            shutil.copy(subject_windows, run_dir / "w.wset")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            for argv in (
                ["train", "--windows", "w.wset", "--mode", "adapter",
                 "--out-checkpoint", "m.ckpt", *COMMON_TRAIN, "--epochs", "1"],
                ["eval", "--checkpoint", "m.ckpt", "--windows", "w.wset",
                 "--subject-level", "--out", "eval.txt"],
                ["extract", "--checkpoint", "m.ckpt", "--windows", "w.wset",
                 "--out-embeddings", "emb.csv"],
            ):
                subprocess.run([sys.executable, "-m", "eegadapt", *argv],
                               cwd=run_dir, env=env, check=True,
                               capture_output=True, preexec_fn=preexec_fn)
            return {
                name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                for name in ("m.ckpt", "m.ckpt.log.csv", "m.ckpt.metrics.txt",
                             "eval.txt", "emb.csv")}

        # Each case compares a fresh run at its own thread count, free and
        # pinned to one CPU, with a run at one BLAS thread.
        first = run_chain("blas-1", "1")
        assert run_chain(f"blas-{threads}-fresh", threads) == first
        assert run_chain(f"blas-{threads}-one-cpu", threads, one_cpu) == first

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


def test_auto_split_with_windows_fails_in_one_line(windows, tmp_path, capsys):
    # A window set carries its splits; --auto-split would be silently dropped.
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--mode", "raw", "--windows", str(windows),
                 "--auto-split", "0.6,0.2,0.2", "--out-checkpoint", str(ckpt),
                 *COMMON_TRAIN]) == 2
    assert_one_line_error(capsys, "--auto-split", "--windows")
    assert not ckpt.exists()


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
