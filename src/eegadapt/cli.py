"""Command-line surface tying the pipeline together.

Subcommands: synth, preprocess, align, train, eval, extract, zeroshot.
Every run writes a reproducibility header (all flags, seed, versions) into
its output files, and identical flags plus an identical seed produce
byte-identical outputs in serial mode.
"""

from __future__ import annotations

import argparse
import platform
import sys
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .adapter import default_adapter_config
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .encoder import BfmConfig
from .errors import ConfigurationError, PipelineError
from .fileio import (check_subject_ids, checksummed, read_embeddings_text,
                     write_embeddings_text, write_text)
from .manifest import load_manifest, split_subject_independent
from .model import build_classifier, own_threads
from .montage import BUILTIN_MONTAGE_TOKEN, load_montage
from .pipeline import (
    FilterSettings,
    align_window_set,
    open_window_set,
    save_window_set,
    window_set_for,
)
from .synthetic import SynthSpec, write_synthetic_dataset
from .training import (
    TrainConfig,
    confusion_matrix,
    format_metrics_report,
    metrics_from_confusion,
    predict,
    train_loop,
)
from .zeroshot import ZeroShotProtocol, run_zeroshot, subject_aggregate

MODES = ("adapter", "select", "mix", "raw")


def repro_header(command: str, args: argparse.Namespace) -> list[str]:
    lines = [
        f"eegadapt {__version__}",
        f"command = {command}",
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
    ]
    for key in sorted(vars(args)):
        if key == "func":
            continue
        lines.append(f"flag.{key} = {getattr(args, key)!r}")
    return lines


def _wanted(args, alignment: str = "none", target_len: int | None = None) -> dict:
    """The data the flags ask for, in the keys of a window set's fingerprint."""
    return {"notch_hz": args.notch, "notch_q": args.notch_q,
            "band_low_hz": args.band_low, "band_high_hz": args.band_high,
            "band_order": args.order, "window_len": args.window,
            "alignment": alignment, "target_len": target_len}


def _parse_list(flag: str, text: str, kind=int) -> list:
    """Parse a comma-separated flag value, naming the flag on failure."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"{flag} must be comma-separated {kind.__name__} values, got {text!r}"
        ) from None


def _source(args):
    """The data a run reads: the --windows path, or the --manifest loaded."""
    if bool(args.windows) == bool(args.manifest):
        raise ConfigurationError("pass exactly one of --windows or --manifest")
    return args.windows or load_manifest(args.manifest)


def _write_text(path: str | None, text: str) -> None:
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


# The flags that say how a manifest is filtered and windowed, with their
# defaults; a window set was filtered and windowed when it was made.
_FILTER_FLAGS = (
    ("--notch", float, FilterSettings.notch_hz, "notch center frequency in Hz"),
    ("--notch-q", float, FilterSettings.notch_q, "notch quality factor"),
    ("--band-low", float, FilterSettings.band_low_hz, "bandpass low cutoff in Hz"),
    ("--band-high", float, FilterSettings.band_high_hz, "bandpass high cutoff in Hz"),
    ("--order", int, FilterSettings.band_order, "Butterworth bandpass order"),
    ("--window", int, 128, "non-overlapping window length in samples"),
)


def _add_filter_flags(p: argparse.ArgumentParser, defaults: bool = True) -> None:
    """The filter flags; without ``defaults`` one not given parses as None,
    for ``_given_filter_flags`` to tell it from one given."""
    for flag, kind, default, text in _FILTER_FLAGS:
        p.add_argument(flag, type=kind, default=default if defaults else None, help=text)


def _given_filter_flags(args) -> list[str]:
    """The filter flags given; each one not given is set to its default."""
    given = []
    for flag, _, default, _ in _FILTER_FLAGS:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        else:
            given.append(flag)
    return given


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    spec = SynthSpec(
        num_classes=args.classes,
        channels=args.channels,
        timesteps=args.timesteps,
        sample_rate_hz=args.fs,
        noise=args.noise,
        counts=(args.train, args.val, args.test),
        subjects=(args.train_subjects, args.val_subjects, args.test_subjects),
        seed=args.seed,
        label_mode=args.labels,
    )
    manifest_path = write_synthetic_dataset(args.out, spec)
    print(f"wrote {manifest_path}")
    return 0


def cmd_preprocess(args) -> int:
    wset = window_set_for(_wanted(args), load_manifest(args.manifest))
    header = {"repro": repro_header("preprocess", args)}
    save_window_set(args.out, wset, header=header)
    print(f"wrote {args.out}: {len(wset)} windows of shape "
          f"{wset.data.shape[1]}x{wset.data.shape[2]}")
    return 0


def cmd_align(args) -> int:
    for flag, given in (("--target-len", args.target_len is not None),
                        ("--montage", args.montage != BUILTIN_MONTAGE_TOKEN)):
        if args.mode == "none" and given:
            raise ConfigurationError(f"--mode none ignores {flag}; drop it")
    wset = open_window_set(args.windows)
    if args.mode != "none":
        wset = align_window_set(wset, args.mode, load_montage(args.montage),
                                args.target_len)
    save_window_set(args.out, wset.in_memory(),
                    header={"repro": repro_header("align", args)})
    print(f"wrote {args.out}: {len(wset)} windows of shape "
          f"{wset.data.shape[1]}x{wset.data.shape[2]}")
    return 0


def _choose_adapter_steps(in_timesteps: int, patch_len: int) -> int:
    cand = ((in_timesteps - 16) // patch_len) * patch_len
    while cand >= patch_len:
        try:
            default_adapter_config(1, in_timesteps, out_timesteps=cand)
            return cand
        except ConfigurationError:
            cand -= patch_len
    raise ConfigurationError(
        f"no adapter output length fits {in_timesteps} input steps with "
        f"patch length {patch_len}"
    )


def cmd_train(args) -> int:
    if args.patch_len < 1:
        raise ConfigurationError(f"--patch-len must be >= 1, got {args.patch_len}")
    if args.adapter_steps is not None and args.adapter_steps < 1:
        raise ConfigurationError(
            f"--adapter-steps must be >= 1, got {args.adapter_steps}")
    aligns = args.mode in ("select", "mix")
    for flag, value, read in (("--target-len", args.target_len, aligns),
                              ("--montage", args.montage, aligns),
                              ("--adapter-steps", args.adapter_steps,
                               args.mode == "adapter")):
        if value is not None and not read:
            raise ConfigurationError(f"--mode {args.mode} ignores {flag}; drop it")
    given = _given_filter_flags(args)
    if args.windows and given:
        raise ConfigurationError(f"--windows ignores {given[0]}: the set was "
                                 "filtered and windowed when it was made; drop it")
    source = _source(args)
    if args.auto_split:
        if args.windows:
            raise ConfigurationError(
                "--auto-split splits a --manifest; a --windows set keeps its splits")
        fractions = _parse_list("--auto-split", args.auto_split, float)
        source = split_subject_independent(source, fractions, seed=args.seed)
    want = _wanted(args, args.mode if aligns else "none", args.target_len)
    wset = window_set_for(want, source, args.montage)
    wset.require_assigned()

    classes = dict(wset.classes)
    if args.train_classes:
        keep = sorted(set(_parse_list("--train-classes", args.train_classes)))
        name_of = {v: k for k, v in wset.classes.items()}
        unknown = [c for c in keep if c not in name_of]
        if unknown:
            raise ConfigurationError(f"--train-classes indices {unknown} not in manifest")
        classes = {name_of[old]: new for new, old in enumerate(keep)}
    num_classes = len(classes)
    n, channels, timesteps = wset.data.shape

    adapter_cfg = None
    if args.mode == "adapter":
        steps = args.adapter_steps or _choose_adapter_steps(timesteps, args.patch_len)
        adapter_cfg = default_adapter_config(
            channels, timesteps, out_channels=23, out_timesteps=steps,
            hidden_maps=args.hidden_maps,
        )
        enc_channels, enc_steps, vocab = 23, steps, 23
    elif args.mode == "raw":
        if channels > 128:
            raise ConfigurationError(
                f"raw mode supports at most 128 channels, got {channels}"
            )
        enc_channels, enc_steps, vocab = channels, timesteps, 128
    else:
        enc_channels, enc_steps, vocab = channels, timesteps, 23
    if enc_steps % args.patch_len != 0:
        raise ConfigurationError(
            f"{enc_steps} timesteps not divisible by patch length "
            f"{args.patch_len}; adjust --window/--target-len/--adapter-steps"
        )

    encoder_cfg = BfmConfig(
        num_channels=enc_channels,
        num_classes=num_classes,
        patch_len=args.patch_len,
        embed_dim=args.embed_dim,
        num_layers=args.encoder_layers,
        num_heads=args.heads,
        channel_vocab=vocab,
        max_patches=enc_steps // args.patch_len,
    )
    model = build_classifier(encoder_cfg, adapter_cfg, seed=args.seed)

    train_set = wset.select("train", classes)
    val_set = wset.select("val", classes)
    fingerprint = dict(wset.fingerprint)
    fingerprint["mode"] = args.mode
    # The splits hold all the rows training reads (or their file): the set
    # can go first.
    del wset
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        optimizer=args.optimizer,
        seed=args.seed,
        freeze_bfm=args.freeze_bfm,
    )
    result = train_loop(model, train_set, val_set, cfg)
    save_checkpoint(args.out_checkpoint, Checkpoint(model, classes, fingerprint))

    header = repro_header("train", args)
    log_path = Path(str(args.out_checkpoint) + ".log.csv")
    log_lines = [f"# {line}" for line in header]
    log_lines.append("epoch,train_loss,train_acc,val_loss,val_acc")
    for ep in result.epochs:
        log_lines.append(
            f"{ep.epoch},{ep.train_loss!r},{ep.train_acc!r},"
            f"{ep.val_loss!r},{ep.val_acc!r}"
        )
    write_text(log_path, "\n".join(log_lines) + "\n")

    val_report = metrics_from_confusion(
        confusion_matrix(val_set.y, result.val_predictions, num_classes))
    metrics_path = Path(str(args.out_checkpoint) + ".metrics.txt")
    write_text(metrics_path, format_metrics_report(
        val_report,
        header_lines=[f"# {line}" for line in header]
        + [f"# best_epoch = {result.best_epoch}", "# split = val"],
    ))
    print(f"wrote {args.out_checkpoint} (best epoch {result.best_epoch}, "
          f"val accuracy {result.best_val_accuracy:.4f})")
    print(f"wrote {log_path}")
    print(f"wrote {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    wset = window_set_for(ckpt.fingerprint, _source(args), args.montage,
                          args.checkpoint)
    data = wset.select(args.split, ckpt.classes)
    # The split holds all the rows the forward reads: the set can go first.
    del wset
    if not len(data):
        raise ConfigurationError(
            f"split {args.split!r} holds no samples of the checkpoint's classes"
        )
    preds, probs = predict(ckpt.model, data)
    report = metrics_from_confusion(
        confusion_matrix(data.y, preds, ckpt.model.num_classes))
    header = [f"# {line}" for line in repro_header("eval", args)]
    text = format_metrics_report(report, header_lines=header)
    if args.subject_level:
        subject_preds, subject_report = subject_aggregate(
            data.subjects, preds, probs, data.y
        )
        lines = ["", "subject-level:"]
        lines.append(format_metrics_report(subject_report).rstrip("\n"))
        lines.append("subjects:")
        for sp in subject_preds:
            votes = ",".join(f"{k}:{v}" for k, v in sorted(sp.vote_histogram.items()))
            lines.append(f"  {sp.subject_id} label={sp.aggregated_label} votes={votes}")
        text += "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return 0


def cmd_extract(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    wset = window_set_for(ckpt.fingerprint, _source(args), args.montage,
                          args.checkpoint)
    data = wset.select(args.split)
    del wset
    if not len(data):
        raise ConfigurationError(f"split {args.split!r} is empty")
    check_subject_ids(data.subjects)
    embeddings = ckpt.model.embed_batch(data.x)
    write_embeddings_text(
        args.out_embeddings,
        embeddings,
        data.y,
        data.subjects,
        header_lines=repro_header("extract", args),
    )
    print(f"wrote {args.out_embeddings}: {embeddings.shape[0]} embeddings of dim "
          f"{embeddings.shape[1]}")
    return 0


def cmd_zeroshot(args) -> int:
    emb, labels, _ = read_embeddings_text(args.embeddings)
    held = frozenset(_parse_list("--held-out-classes", args.held_out_classes))
    protocol = ZeroShotProtocol(
        held_out_classes=held,
        fit_fraction=args.fit_fraction,
        seed=args.seed,
    )
    result = run_zeroshot(emb, labels, protocol, knn_k=args.knn_k)
    lines = [f"# {line}" for line in repro_header("zeroshot", args)]
    lines.append("zeroshot-report v1")
    lines.append("classifier accuracy")
    for name in ("svm", "knn", "kmeans"):
        lines.append(f"{name} {result[name]!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    # Flags are read by their full names only, never by a prefix.
    parser = argparse.ArgumentParser(
        prog="eegadapt", allow_abbrev=False,
        description="Montage-agnostic EEG classification pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=partial(
        argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("synth", help="generate a synthetic dataset + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=SynthSpec.num_classes)
    p.add_argument("--channels", type=int, default=SynthSpec.channels)
    p.add_argument("--timesteps", type=int, default=SynthSpec.timesteps)
    p.add_argument("--fs", type=float, default=SynthSpec.sample_rate_hz)
    p.add_argument("--noise", type=float, default=SynthSpec.noise)
    p.add_argument("--train", type=int, default=SynthSpec.counts[0])
    p.add_argument("--val", type=int, default=SynthSpec.counts[1])
    p.add_argument("--test", type=int, default=SynthSpec.counts[2])
    p.add_argument("--train-subjects", type=int, default=SynthSpec.subjects[0])
    p.add_argument("--val-subjects", type=int, default=SynthSpec.subjects[1])
    p.add_argument("--test-subjects", type=int, default=SynthSpec.subjects[2])
    p.add_argument("--labels", choices=("per-recording", "per-subject"),
                   default=SynthSpec.label_mode)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="filter and window a manifest")
    p.add_argument("--manifest", required=True)
    _add_filter_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("align", help="map windows onto the 23-channel montage")
    p.add_argument("--windows", required=True)
    p.add_argument("--mode", choices=("select", "mix", "none"), default="select")
    p.add_argument("--montage", default="builtin-table1")
    p.add_argument("--target-len", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("train", help="train a classifier end to end")
    p.add_argument("--manifest")
    p.add_argument("--windows")
    p.add_argument("--mode", choices=MODES, required=True)
    _add_filter_flags(p, defaults=False)
    p.add_argument("--montage", default=None)
    p.add_argument("--target-len", type=int, default=None)
    p.add_argument("--adapter-steps", type=int, default=None)
    p.add_argument("--hidden-maps", type=int, default=64)
    p.add_argument("--embed-dim", type=int, default=BfmConfig.embed_dim)
    p.add_argument("--encoder-layers", type=int, default=BfmConfig.num_layers)
    p.add_argument("--heads", type=int, default=BfmConfig.num_heads)
    p.add_argument("--patch-len", type=int, default=BfmConfig.patch_len)
    p.add_argument("--train-classes", default=None,
                   help="comma-separated class indices to train on")
    p.add_argument("--auto-split", default=None,
                   help="subject-independent fractions, e.g. 0.6,0.2,0.2")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--optimizer", choices=("adamw", "sgd"), default=TrainConfig.optimizer)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--freeze-bfm", action="store_true")
    p.add_argument("--out-checkpoint", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--windows")
    p.add_argument("--manifest")
    p.add_argument("--montage", default=None)
    p.add_argument("--split", choices=("train", "val", "test", "all"),
                   default="test")
    p.add_argument("--subject-level", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("extract", help="export pooled embeddings as text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--windows")
    p.add_argument("--manifest")
    p.add_argument("--montage", default=None)
    p.add_argument("--split", choices=("train", "val", "test", "all"),
                   default="all")
    p.add_argument("--out-embeddings", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("zeroshot", help="classify held-out-class embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--held-out-classes", required=True,
                   help="comma-separated class indices")
    p.add_argument("--fit-fraction", type=float, default=ZeroShotProtocol.fit_fraction)
    p.add_argument("--knn-k", type=int, default=5)
    p.add_argument("--seed", type=int, default=ZeroShotProtocol.seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_zeroshot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    own_threads()
    try:
        # A fault found while a --windows set streams reports a corrupt set as such.
        with checksummed(getattr(args, "windows", None)):
            return args.func(args)
    except (PipelineError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # numpy's names the size; others may be empty
            exc = ": ".join(filter(None, ["the run ran out of memory", str(exc)]))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
