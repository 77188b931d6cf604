"""Dataset assembly: manifest -> filtered windows -> aligned model inputs.

A WindowSet is the unit the training and evaluation commands consume. It
records the preprocessing fingerprint (filter settings, window length,
alignment) so a checkpoint can refuse data prepared differently, and
``window_set_for`` turns a fingerprint back into the set it describes.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, groupby

import numpy as np

from .core import extract_windows, window_count
from .errors import (
    ConfigurationError,
    DomainError,
    FingerprintMismatchError,
    IntegrityError,
    require_class_table,
    require_number,
)
from .fileio import BundleReader, checksummed, open_document, write_bundle
from .filters import apply_chain_to_rows, design_bandpass, design_notch
from .manifest import SPLITS, DatasetManifest, load_recording, size_recording
from .model import map_chunks
from .montage import (BUILTIN_MONTAGE_TOKEN, TARGET_ORDER, MontageMap, alignment_index,
                      load_montage, mix_channels, montage_identity)
from .training import LabeledSet

logger = logging.getLogger(__name__)

__all__ = [
    "FilterSettings",
    "WindowSet",
    "StoredRows",
    "preprocess_manifest",
    "align_window_set",
    "window_set_for",
    "save_window_set",
    "open_window_set",
    "load_window_set",
    "check_fingerprint",
]

# A group's samples take at most 1/_GROUP_SHARE of the window array's bytes;
# one chain call per group spreads sosfilt's fixed cost, which holds the GIL.
_GROUP_SHARE = 32


@dataclass(frozen=True)
class FilterSettings:
    """Notch and bandpass settings; the defaults are the CLI's defaults."""

    notch_hz: float = 50.0
    notch_q: float = 30.0
    band_low_hz: float = 0.1
    band_high_hz: float = 75.0
    band_order: int = 4


class StoredRows:
    """The rows of a stored set's 'data' a run keeps (under a boolean mask),
    left in the file: a source of rows for the model and ``mix_channels``.
    ``blocks`` reads the file in one pass, checking each block finite and
    then the CRC; indexing reads rows by offset from the file that pass
    checked, making the pass first if none has been made."""

    dtype = np.dtype(np.float64)  # of the rows read

    def __init__(self, reader: BundleReader, mask: np.ndarray | None = None):
        self.reader, self.mask = reader, mask
        n, *row = reader.specs[reader.names["data"]]["shape"]
        self.rows = np.arange(n) if mask is None else np.flatnonzero(mask)
        self.shape = (len(self.rows), *row)

    def __getitem__(self, key):
        """A boolean mask over these rows: the rows under it, still in the
        file. A slice or integer indices: those rows, in that order, read
        into one fresh float64 array."""
        if isinstance(key, np.ndarray) and key.dtype == bool:
            if self.mask is not None:
                key, kept = self.mask.copy(), key
                key[self.mask] = kept
            return StoredRows(self.reader, key)
        if not self.reader.checked:
            for _ in self.blocks():
                pass
        return self.reader.take("data", self.rows[key]).astype(np.float64, copy=False)

    def blocks(self):
        """(first kept row, kept rows as float64) for each block read."""
        kept = 0
        for first, rows in self.reader.blocks("data"):
            if not np.all(np.isfinite(rows)):
                raise DomainError(f"{self.reader.path}: 'data' contains non-finite samples")
            if self.mask is not None:
                rows = rows[self.mask[first:first + len(rows)]]
            yield kept, rows.astype(np.float64, copy=False)
            kept += len(rows)


@dataclass
class WindowSet:
    """Fixed-shape samples plus everything needed to reproduce them."""

    data: np.ndarray | StoredRows  # (N, C, T) float64, or still in its file
    labels: np.ndarray            # (N,) int64
    subjects: np.ndarray          # (N,) str
    splits: np.ndarray            # (N,) str, each one of manifest.SPLITS
    sample_rates: np.ndarray      # (N,) float64
    channel_labels: list[str]
    classes: dict[str, int]
    fingerprint: dict

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def mask(self, split: str) -> np.ndarray:
        """Boolean row mask of one split ('train', 'val', 'test', or 'all')."""
        if split == "all":
            return np.ones(len(self), dtype=bool)
        return self.splits == split

    def select(self, split: str, classes: dict[str, int] | None = None) -> LabeledSet:
        """One split ('train', 'val', 'test', or 'all') as a ``LabeledSet``.

        ``classes`` is a head's class table (name -> head index): the split
        keeps the rows of the classes it names, labelled with head indices.
        None keeps the data's labels. A split that keeps every row holds
        this set's arrays, not copies.
        """
        mask, y = self.mask(split), self.labels
        if classes is not None:
            # Data class indices are dense, so they index the lookup.
            names = sorted(self.classes, key=self.classes.get)
            y = np.array([classes.get(n, -1) for n in names], dtype=np.int64)[y]
            mask &= y >= 0
        if mask.all():
            return LabeledSet(x=self.data, y=y, subjects=self.subjects)
        return LabeledSet(x=self.data[mask], y=y[mask], subjects=self.subjects[mask])

    def require_assigned(self) -> None:
        if np.any(self.splits == "unassigned"):
            raise ConfigurationError(
                "window set contains unassigned samples; configure a split "
                "strategy (subject-independent splitting) first"
            )

    def in_memory(self) -> WindowSet:
        """This set with rows still in its file read into one array."""
        return replace(self, data=self.data[:]) if isinstance(self.data, StoredRows) \
            else self


def _alignment(mode: str, montage: MontageMap, target_len: int | None, window_len: int):
    """The map ``mode`` aligns with, and the fingerprint entries it sets (the
    montage named by the content hash of the whole map, in select mode too).
    A ``target_len`` of None is the windows' own ``window_len``."""
    if mode not in ("select", "mix"):
        raise ConfigurationError(f"alignment mode must be 'select' or 'mix', got {mode!r}")
    target_len = window_len if target_len is None else target_len
    entries = {"alignment": mode, "montage": montage_identity(montage),
               "target_len": target_len, "channels": 23, "timesteps": target_len}
    return montage.first_sources() if mode == "select" else montage, entries


def preprocess_manifest(manifest: DatasetManifest, filters: FilterSettings,
                        window_len: int, align: tuple | None = None) -> WindowSet:
    """Load, convert to microvolts, filter (notch then bandpass), window, and
    align when ``align`` = (mode, montage, target_len or None) is given.

    The recordings must share one channel layout. Each is sized before any
    is loaded (a binary file from its header; a text file is parsed, and the
    array is kept until its task takes it); the filters are designed once
    per sample rate, in manifest order, and the alignment's index map once.
    The windows fill one array allocated once. Consecutive recordings that
    share a rate and shape form groups of at most 1/``_GROUP_SHARE`` of its
    bytes, one recording at least. One task per group, on the model's pool
    (``model.map_chunks``), loads them into one buffer, filters it with one
    call per filter, and cuts and aligns each recording's windows into its
    rows. Checks, logs and the first error come per recording in manifest
    order. The peak is the set plus ~3x one group's samples per worker, and
    for a text manifest every parsed array whose task has not yet run.
    """
    recordings = manifest.recordings
    channel_labels = recordings[0].channel_labels if recordings else []
    sized, counts = [], []
    for entry in recordings:
        shape, parsed = size_recording(entry, manifest.base_dir)
        if entry.channel_labels != channel_labels:
            raise ConfigurationError(
                f"{entry.path}: channel labels differ from the first recording; "
                "a manifest must use one acquisition layout"
            )
        sized.append((shape, parsed))
        counts.append(window_count(shape[1], window_len))

    chains = {
        fs: (design_notch(filters.notch_hz, fs, filters.notch_q),
             design_bandpass(filters.band_low_hz, filters.band_high_hz,
                             filters.band_order, fs))
        for fs in dict.fromkeys(e.sample_rate_hz for e in recordings)
    }
    fingerprint = {**asdict(filters), "window_len": window_len, "alignment": "none",
                   "montage": None, "target_len": None,
                   "channels": len(channel_labels), "timesteps": window_len}
    index, width = None, len(channel_labels) * window_len
    if align is not None:
        montage, entries = _alignment(*align, window_len)
        index = alignment_index(channel_labels, window_len, montage,
                                entries["target_len"])
        fingerprint.update(entries)
    rows = np.cumsum([0, *counts])
    if not rows[-1]:
        raise ConfigurationError(f"no windows of length {window_len} could be extracted")
    windows = np.empty((rows[-1], fingerprint["channels"], fingerprint["timesteps"]))

    budget, groups = windows.nbytes // _GROUP_SHARE, []
    for (_, (e, t)), run in groupby(range(len(recordings)), lambda i: (
            recordings[i].sample_rate_hz, sized[i][0])):
        run, k = list(run), max(1, budget // (windows.itemsize * e * t))
        groups += [run[i:i + k] for i in range(0, len(run), k)]

    def fill(group: list[int]) -> list[int]:
        (e, t), _ = sized[group[0]]
        samples = np.empty((len(group) * e, t))
        for j, idx in enumerate(group):
            entry, (shape, parsed) = recordings[idx], sized[idx]
            sized[idx] = None  # a parsed text recording goes with its task
            data = load_recording(entry, manifest.base_dir, parsed)
            if data.shape != shape:
                raise IntegrityError(f"{entry.path} changed while it was preprocessed: "
                                     f"sized as {shape[0]}x{shape[1]}, read as "
                                     f"{data.shape[0]}x{data.shape[1]}")
            samples[j * e:(j + 1) * e] = data
        del data  # the last recording's own array goes before filtering
        # One name holds the samples, so each filter's input goes once it has run.
        for sos in chains[recordings[group[0]].sample_rate_hz]:
            samples = apply_chain_to_rows(sos, samples)
        for j, idx in enumerate(group):
            cut = extract_windows(samples[j * e:(j + 1) * e], window_len)
            windows[rows[idx]:rows[idx + 1]] = cut if index is None else \
                cut.reshape(len(cut), width).take(index, axis=1)
        return group

    for idx in chain.from_iterable(map_chunks(fill, groups)):
        logger.debug("recording %d (%s): %d windows", idx, recordings[idx].path,
                     counts[idx])

    def per_window(values, dtype) -> np.ndarray:
        return np.repeat(np.array(values, dtype=dtype), counts)

    return WindowSet(
        data=windows,
        labels=per_window([manifest.classes[e.label] for e in recordings], np.int64),
        subjects=per_window([e.subject_id for e in recordings], str),
        splits=per_window([e.split for e in recordings], str),
        sample_rates=per_window([e.sample_rate_hz for e in recordings], np.float64),
        channel_labels=channel_labels if index is None else list(TARGET_ORDER),
        classes=dict(manifest.classes),
        fingerprint=fingerprint,
    )


def align_window_set(wset: WindowSet, mode: str, montage: MontageMap,
                     target_len: int | None) -> WindowSet:
    """Apply select or mix alignment to every window in one gather, block by
    block for rows still in their file."""
    montage, entries = _alignment(mode, montage, target_len, wset.data.shape[2])
    if wset.fingerprint.get("alignment") != "none":
        raise ConfigurationError("window set is already aligned")
    aligned = mix_channels(wset.data, wset.channel_labels, montage,
                           entries["target_len"])
    return replace(wset, data=aligned, channel_labels=list(TARGET_ORDER),
                   fingerprint={**wset.fingerprint, **entries})


def _montage_for(spec: str | None, manifest: DatasetManifest | None) -> MontageMap:
    """The --montage flag's map, or else the manifest's (a path relative to
    the manifest's directory first), or else the builtin one."""
    if spec is None and manifest is not None:
        spec = manifest.montage
        if (manifest.base_dir / spec).exists() and spec != BUILTIN_MONTAGE_TOKEN:
            spec = str(manifest.base_dir / spec)
    return load_montage(BUILTIN_MONTAGE_TOKEN if spec is None else spec)


def window_set_for(want: dict, source, montage: str | None = None,
                   checkpoint=None) -> WindowSet:
    """The window set a run reads, from a saved set's path or a manifest.

    ``want`` is the fingerprint of the file ``checkpoint`` (its model 'mode'
    aside) or, with ``checkpoint`` None, a command's flags in the same keys,
    a 'target_len' of None meaning the data's own window length. ``montage``
    is the --montage flag. A manifest is preprocessed and aligned in one
    pass; a saved set is taken as it is, its rows left in the file
    (``StoredRows``), except that flags align an unaligned one, and a given
    --montage must be the one it was aligned with. A checkpoint's whole
    fingerprint must match the data.
    """
    want = {k: v for k, v in want.items() if k != "mode"}
    mode = want.get("alignment")
    if mode not in ("none", "select", "mix"):
        raise IntegrityError(f"{checkpoint}: fingerprint 'alignment' must be "
                             f"'none', 'select' or 'mix', got {mode!r}")

    def number(key):
        return require_number(want.get(key), IntegrityError,
                              f"{checkpoint}: fingerprint {key!r}",
                              key in ("band_order", "window_len", "target_len"))

    filters = FilterSettings(**{f.name: number(f.name) for f in fields(FilterSettings)})
    window_len = number("window_len")
    target_len = (number("target_len") if checkpoint is not None and mode != "none"
                  else want.get("target_len"))
    if isinstance(source, DatasetManifest):
        align = None if mode == "none" else (mode, _montage_for(montage, source),
                                             target_len)
        wset = preprocess_manifest(source, filters, window_len, align)
    else:
        wset = open_window_set(source)
        have, length = wset.fingerprint, wset.data.shape[2]
        if mode != "none" and have.get("alignment") == "none":
            if checkpoint is not None:
                raise ConfigurationError("checkpoint was trained on aligned data; "
                                         "align the window set first or pass --manifest")
            return align_window_set(wset, mode, _montage_for(montage, None),
                                    target_len)
        if montage is not None \
                and montage_identity(load_montage(montage)) != have.get("montage"):
            raise ConfigurationError(f"--montage {montage} is not the montage "
                                     "the window set was aligned with")
        if checkpoint is None and mode not in ("none", have.get("alignment")):
            raise ConfigurationError(f"window set is aligned with mode "
                                     f"{have.get('alignment')!r}, not {mode!r}")
        if checkpoint is None and target_len not in (None, length):
            raise ConfigurationError(f"--target-len {target_len} differs from "
                                     f"the aligned set's length {length}")
    if checkpoint is not None:
        check_fingerprint(want, wset.fingerprint)
    return wset


def save_window_set(path, wset: WindowSet, header: dict | None = None) -> None:
    meta = {
        "kind": "window-set",
        "version": 1,
        "subjects": wset.subjects.tolist(),
        "splits": wset.splits.tolist(),
        "channel_labels": wset.channel_labels,
        "classes": wset.classes,
        "fingerprint": wset.fingerprint,
        "header": header or {},
    }
    write_bundle(path, meta, [
        ("data", wset.data),
        ("labels", wset.labels),
        ("sample_rates", wset.sample_rates),
    ])


def open_window_set(path) -> WindowSet:
    """A stored window set, all but its 'data' rows read and checked; those
    stay in the file as ``StoredRows``."""
    reader = open_document(path, "window-set", 1, (
        ("subjects", list), ("splits", list), ("channel_labels", list),
        ("fingerprint", dict)))
    meta = reader.meta
    for name in ("data", "labels", "sample_rates"):
        if name not in reader.names:
            raise IntegrityError(f"{path}: window set has no {name!r} array")
    spec = reader.specs[reader.names["data"]]
    dtype, shape = np.dtype(spec["dtype"]), tuple(spec["shape"])
    channels = len(meta["channel_labels"])
    if dtype.kind != "f" or len(shape) != 3 or shape[1] != channels or shape[2] < 1:
        raise IntegrityError(
            f"{path}: 'data' holds {dtype} of shape {shape}, expected "
            f"floats (N, {channels}, T>=1), one row per entry of 'channel_labels'"
        )
    labels, rates = reader.array("labels"), reader.array("sample_rates")
    n = shape[0]
    shapes = {"labels": labels.shape, "sample_rates": rates.shape,
              "subjects": (len(meta["subjects"]),), "splits": (len(meta["splits"]),)}
    for name, found in shapes.items():
        if found != (n,):
            raise IntegrityError(f"{path}: {name!r} has shape {found}, expected ({n},)")
    if rates.dtype.kind != "f" or not np.all((rates > 0) & np.isfinite(rates)):
        raise DomainError(f"{path}: 'sample_rates' must all be positive finite floats")
    if not all(isinstance(c, str) for c in meta["channel_labels"]):
        raise IntegrityError(f"{path}: 'channel_labels' must hold strings")
    if not all(isinstance(s, str) and "\0" not in s for s in meta["subjects"]):
        raise IntegrityError(
            f"{path}: 'subjects' must hold one string without NUL per window")
    if not all(s in SPLITS for s in meta["splits"]):
        raise IntegrityError(f"{path}: 'splits' must hold one of {SPLITS} per window")
    classes = require_class_table(meta.get("classes"), IntegrityError,
                                  f"{path}: 'classes'")
    if not np.all(np.isfinite(labels) & (labels == np.round(labels))):
        raise IntegrityError(f"{path}: 'labels' must hold finite whole numbers")
    if not np.all(np.isin(labels, list(classes.values()))):
        raise DomainError(f"{path}: 'labels' holds indices missing from 'classes'")
    return WindowSet(
        data=StoredRows(reader),
        labels=labels.astype(np.int64),
        subjects=np.array(meta["subjects"], dtype=str),
        splits=np.array(meta["splits"], dtype=str),
        sample_rates=rates,
        channel_labels=list(meta["channel_labels"]),
        classes=dict(classes),
        fingerprint=meta["fingerprint"],
    )


def load_window_set(path) -> WindowSet:
    """Read a window set whole, checking its schema, shapes and values once;
    a corrupt file is reported as corrupt ahead of any fault found in it."""
    with checksummed(path):
        return open_window_set(path).in_memory()


def check_fingerprint(expected: dict, actual: dict) -> None:
    """Refuse to mix a checkpoint with differently prepared data."""
    keys = sorted(set(expected) | set(actual))
    diffs = [
        f"{k}: checkpoint={expected.get(k)!r} data={actual.get(k)!r}"
        for k in keys
        if expected.get(k) != actual.get(k)
    ]
    if diffs:
        raise FingerprintMismatchError(
            "preprocessing fingerprint mismatch; " + "; ".join(diffs)
        )
