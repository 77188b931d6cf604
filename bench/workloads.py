"""The three closed-loop workloads, each driven through ``eegadapt.cli.main``.

A workload has a set-up (synthetic data from the benchmark seed, pre-made
window sets, and for ``infer-mix`` a trained checkpoint) and an iteration:
a fixed list of CLI commands run one after the other, each paired with a
check of its outputs. One caller runs each command to completion before
the next starts. Shapes are fixed; the seed changes only the data.
"""

from __future__ import annotations

import contextlib
import math
from pathlib import Path

import numpy as np

# Encoder shape shared by both model workloads: 23 channels x 7 patches of
# 16 samples = 161 tokens, embed 32, 2 layers, 4 heads.
MODEL_FLAGS = ["--embed-dim", "32", "--encoder-layers", "2", "--heads", "4",
               "--patch-len", "16"]
CLASSES = 4
TARGET_LEN = 112


class Workload:
    """Defaults for a workload without warm-up probes or quality readings."""

    def warmup(self, state: dict):
        return contextlib.nullcontext()

    def quality(self, state: dict) -> dict:
        return {}


class CheckFailed(Exception):
    """A command returned 0 but its outputs are wrong."""


class Command:
    """One CLI call, the windows it moves, and the check of its outputs."""

    def __init__(self, argv, windows=0, check=None):
        self.argv = [str(a) for a in argv]
        self.windows = windows
        self.check = check


def synth_argv(out: Path, seed: int, timesteps: int, counts, subjects,
               labels: str = "per-recording") -> list[str]:
    train, val, test = counts
    s_train, s_val, s_test = subjects
    return ["synth", "--out", out, "--classes", CLASSES, "--channels", 16,
            "--timesteps", timesteps, "--train", train, "--val", val,
            "--test", test, "--train-subjects", s_train,
            "--val-subjects", s_val, "--test-subjects", s_test,
            "--labels", labels, "--seed", seed]


# ------------------------------------------------------------ train-adapter


class TrainAdapter(Workload):
    """``train --mode adapter`` on 16 x 256 windows, batch 32.

    The only workload that runs backward, the optimizer and the conv
    adapter; attention forward plus backward is most of its time.
    """

    name = "train-adapter"
    counts = (192, 32, 32)
    epochs = 1

    def setup(self, run, root: Path, seed: int) -> dict:
        run(synth_argv(root / "data", seed, 256, self.counts, (8, 2, 2)))
        run(["preprocess", "--manifest", root / "data" / "manifest.json",
             "--window", 256, "--out", root / "windows.wset"])
        return {"root": root, "loss": None, "first_step": None}

    @contextlib.contextmanager
    def warmup(self, state: dict):
        """Record the batch losses of the untimed first iteration, so the
        log check can test that the first step starts at ln K."""
        import eegadapt.training as training

        original = training.cross_entropy_batch
        losses = state["first_step"] = []

        def probe(logits, labels):
            loss, grad = original(logits, labels)
            losses.append(loss)
            return loss, grad

        training.cross_entropy_batch = probe
        try:
            yield
        finally:
            training.cross_entropy_batch = original

    def commands(self, state: dict) -> list[Command]:
        ckpt = state["root"] / "run" / "model.ckpt"
        ckpt.parent.mkdir(exist_ok=True)
        argv = ["train", "--windows", state["root"] / "windows.wset",
                "--mode", "adapter", "--adapter-steps", TARGET_LEN,
                *MODEL_FLAGS, "--batch", 32, "--epochs", self.epochs,
                "--seed", 0, "--out-checkpoint", ckpt]
        return [Command(argv, self.counts[0] * self.epochs,
                        lambda: self._check_log(state, ckpt))]

    def _check_log(self, state: dict, ckpt: Path) -> None:
        rows = [line for line in Path(f"{ckpt}.log.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        if rows[0] != "epoch,train_loss,train_acc,val_loss,val_acc":
            raise CheckFailed(f"unexpected log header {rows[0]!r}")
        values = [[float(v) for v in r.split(",")] for r in rows[1:]]
        if len(values) != self.epochs:
            raise CheckFailed(f"log has {len(values)} epochs, expected {self.epochs}")
        if not all(math.isfinite(v) for row in values for v in row):
            raise CheckFailed("log holds a non-finite loss or accuracy")
        first = state["first_step"]
        if first is not None:
            state["first_step"] = None
            if not first or abs(first[0] - math.log(CLASSES)) > 1e-12:
                raise CheckFailed(f"first-step loss {first[:1]} is not ln {CLASSES}")
        loss = values[-1][1]
        if state["loss"] is not None and loss != state["loss"]:
            raise CheckFailed(f"train loss {loss!r} differs from the first "
                              f"iteration's {state['loss']!r}")
        state["loss"] = loss

    def quality(self, state: dict) -> dict:
        return {"train_loss_final": state["loss"]}


# ---------------------------------------------------------------- infer-mix


class InferMix(Workload):
    """``eval --subject-level``, ``extract`` and ``zeroshot`` on mix-aligned
    23 x 112 windows with a mix-mode checkpoint trained during set-up.

    Forward only, batch 64, no adapter: the control for adapter and
    backward-pass work, and the check that training speed-ups keep
    inference fast.
    """

    name = "infer-mix"
    counts = (128, 32, 64)
    subjects = (8, 4, 4)

    def setup(self, run, root: Path, seed: int) -> dict:
        data = root / "data"
        run(synth_argv(data, seed, 256, self.counts, self.subjects,
                       labels="per-subject"))
        run(["preprocess", "--manifest", data / "manifest.json",
             "--window", 256, "--out", root / "windows.wset"])
        run(["align", "--windows", root / "windows.wset", "--mode", "mix",
             "--montage", data / "montage_map.txt", "--target-len", TARGET_LEN,
             "--out", root / "aligned.wset"])
        run(["train", "--windows", root / "aligned.wset", "--mode", "mix",
             *MODEL_FLAGS, "--batch", 16, "--epochs", 2, "--lr", "3e-3",
             "--seed", 0, "--out-checkpoint", root / "model.ckpt"])
        return {"root": root, "acc": None}

    def commands(self, state: dict) -> list[Command]:
        root = state["root"]
        out = root / "run"
        out.mkdir(exist_ok=True)
        common = ["--checkpoint", root / "model.ckpt",
                  "--windows", root / "aligned.wset"]
        n_test, n_all = self.counts[2], sum(self.counts)
        return [
            Command(["eval", *common, "--split", "test", "--subject-level",
                     "--out", out / "eval.txt"], n_test,
                    lambda: self._check_eval(state, out / "eval.txt")),
            Command(["extract", *common, "--split", "all",
                     "--out-embeddings", out / "emb.csv"], n_all,
                    lambda: self._check_embeddings(out / "emb.csv")),
            Command(["zeroshot", "--embeddings", out / "emb.csv",
                     "--held-out-classes", "2,3", "--seed", 0,
                     "--out", out / "zeroshot.txt"], 0,
                    lambda: self._check_zeroshot(out / "zeroshot.txt")),
        ]

    def _check_eval(self, state: dict, path: Path) -> None:
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        if "subject-level:" not in lines:
            raise CheckFailed("eval report has no subject-level section")
        cut = lines.index("subject-level:")
        sample, subject = lines[:cut], lines[cut + 1:]
        fields = dict(ln.split(" = ", 1) for ln in sample if " = " in ln)
        if sample[0] != "metrics-report v1" or int(fields["samples"]) != self.counts[2]:
            raise CheckFailed("eval report does not describe the test split")
        votes = [ln for ln in subject if ln.startswith("  s") and " votes=" in ln]
        if f"samples = {self.subjects[2]}" not in subject \
                or len(votes) != self.subjects[2]:
            raise CheckFailed("eval report lacks one vote line per test subject")
        acc = float(fields["accuracy"])
        if not 1.0 / CLASSES < acc <= 1.0:
            raise CheckFailed(f"test accuracy {acc} is not above chance")
        if state["acc"] is not None and acc != state["acc"]:
            raise CheckFailed(f"test accuracy {acc} differs from {state['acc']}")
        state["acc"] = acc

    def _check_embeddings(self, path: Path) -> None:
        rows = [ln for ln in path.read_text().splitlines()
                if ln and not ln.startswith("#")]
        if len(rows) != sum(self.counts):
            raise CheckFailed(f"{len(rows)} embedding rows, expected {sum(self.counts)}")
        for row in rows:
            parts = row.split(",")
            values = [float(v) for v in parts[:-2]]
            if len(values) != 32 or not all(math.isfinite(v) for v in values) \
                    or not 0 <= int(parts[-2]) < CLASSES:
                raise CheckFailed(f"bad embedding row {row[:60]!r}")

    def _check_zeroshot(self, path: Path) -> None:
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        if lines[:2] != ["zeroshot-report v1", "classifier accuracy"]:
            raise CheckFailed("zeroshot report header is wrong")
        scores = dict(ln.split(" ", 1) for ln in lines[2:])
        if sorted(scores) != ["kmeans", "knn", "svm"] or \
                not all(0.0 <= float(v) <= 1.0 for v in scores.values()):
            raise CheckFailed(f"zeroshot scores are malformed: {scores}")

    def quality(self, state: dict) -> dict:
        return {"test_acc": state["acc"]}


# ----------------------------------------------------------------- prep-mix


def parse_montage(path: Path) -> list[list[str]]:
    """Source lists of the 23 targets, read without the program's parser."""
    out = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append([s.strip() for s in line.partition(":")[2].split(",")])
    return out


def mix_gather_index(sources: list[list[str]], labels: list[str],
                     target_len: int, source_len: int):
    """Index maps (channel, time) of shape (23, target_len) for mix mode.

    A target with k sources is k segments of floor(L / k) samples, the first
    L mod k one sample longer; sample i of a segment is source sample
    i % source_len.
    """
    row = {lab: i for i, lab in enumerate(labels)}
    ci = np.empty((len(sources), target_len), dtype=np.int64)
    ti = np.empty_like(ci)
    for t, srcs in enumerate(sources):
        k = len(srcs)
        start = 0
        for j, src in enumerate(srcs):
            seg = target_len // k + (1 if j < target_len % k else 0)
            ci[t, start:start + seg] = row[src]
            ti[t, start:start + seg] = np.arange(seg) % source_len
            start += seg
    return ci, ti


class PrepMix(Workload):
    """``preprocess`` of 2048-sample recordings into 256-sample windows,
    then ``align --mode mix --target-len 112``.

    Filters, montage mixing, the pipeline and bundle I/O do the work; no
    encoder runs.
    """

    name = "prep-mix"
    counts = (48, 8, 8)
    recording_len = 2048
    window = 256
    samples_checked = 16

    def setup(self, run, root: Path, seed: int) -> dict:
        run(synth_argv(root / "data", seed, self.recording_len, self.counts,
                       (8, 2, 2)))
        return {"root": root, "iteration": 0}

    def commands(self, state: dict) -> list[Command]:
        root = state["root"]
        out = root / "run"
        out.mkdir(exist_ok=True)
        n = sum(self.counts) * (self.recording_len // self.window)
        return [
            Command(["preprocess", "--manifest", root / "data" / "manifest.json",
                     "--window", self.window, "--out", out / "windows.wset"]),
            Command(["align", "--windows", out / "windows.wset", "--mode", "mix",
                     "--montage", root / "data" / "montage_map.txt",
                     "--target-len", TARGET_LEN, "--out", out / "aligned.wset"],
                    n, lambda: self._check_aligned(state, n)),
        ]

    def _check_aligned(self, state: dict, n: int) -> None:
        from eegadapt.fileio import read_bundle

        root = state["root"]
        meta, arrays = read_bundle(root / "run" / "windows.wset")
        _, aligned = read_bundle(root / "run" / "aligned.wset")
        x, y = arrays["data"], aligned["data"]
        if y.shape != (n, 23, TARGET_LEN) or x.shape[0] != n:
            raise CheckFailed(f"aligned shape {y.shape}, expected ({n}, 23, {TARGET_LEN})")
        ci, ti = mix_gather_index(parse_montage(root / "data" / "montage_map.txt"),
                                  meta["channel_labels"], TARGET_LEN, x.shape[2])
        rng = np.random.default_rng(state["iteration"])
        state["iteration"] += 1
        for i in rng.choice(n, size=self.samples_checked, replace=False):
            if not np.array_equal(y[i], x[i][ci, ti]):
                raise CheckFailed(f"aligned window {i} differs from the gather")


WORKLOADS = {w.name: w for w in (TrainAdapter(), InferMix(), PrepMix())}
