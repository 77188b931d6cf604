"""Map an arbitrary source montage onto the fixed 23-channel encoder montage.

Alignment is one gather: every target sample is one sample of one source
electrode, so a whole batch of windows is aligned by a single index map,
built and checked once. Mix mode fills a target row with its neighboring
sources, each length-fitted and concatenated on the time axis; select mode
is mix over each target's first (nearest) source only. Lookups are by
electrode label (after whitespace trimming), never by storage position.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DimensionError, DomainError, ManifestError
from .fileio import read_text

__all__ = [
    "MontageTarget",
    "MontageMap",
    "BUILTIN_MONTAGE_TOKEN",
    "builtin_montage",
    "alignment_index",
    "mix_channels",
    "parse_montage_text",
    "format_montage_text",
    "montage_identity",
    "load_montage",
]

# Token accepted wherever a montage map path is expected.
BUILTIN_MONTAGE_TOKEN = "builtin-table1"

# Target labels of the 23-channel base-model montage, in canonical order.
TARGET_ORDER = (
    "FP1", "FP2", "F3", "F4", "C3", "C4", "P3", "P4", "O1", "O2",
    "F7", "F8", "T3", "T4", "T5", "T6", "A1", "A2", "FZ", "CZ",
    "PZ", "T1", "T2",
)

# Built-in source lists for a 128-channel extended 10-20 acquisition layout.
# The first source of each target is the single nearest electrode; the rest
# are its surrounding neighbors, in mixing order.
_BUILTIN_SOURCES = {
    "FP1": ("Fp1", "Afp1", "AF3", "AF7", "AFF5h"),
    "FP2": ("Fp2", "Afp2", "AF4", "AF8", "AFF6h"),
    "F3": ("F3", "F5", "F1", "FFC5h", "FFC3h"),
    "F4": ("F4", "F2", "F6", "FFC4h", "FFC6h"),
    "C3": ("C3", "C5", "C1", "CCP5h", "CCP3h"),
    "C4": ("C4", "C6", "C2", "CCP4h", "CCP6h"),
    "P3": ("P3", "P1", "P5", "CPP5h", "CPP3h"),
    "P4": ("P4", "P2", "P6", "CPP4h", "CPP6h"),
    "O1": ("O1", "POO1", "PO3", "PO7", "POO9h"),
    "O2": ("O2", "POO2", "PO4", "PO8", "POO10h"),
    "F7": ("F7", "F5", "F9", "FFT9h", "FFT7h"),
    "F8": ("F8", "F6", "F10", "FFT8h", "FFT10h"),
    "T3": ("T7", "TTP7h", "C5", "FTT7h", "FTT9h"),
    "T4": ("T8", "TTP8h", "C6", "FTT8h", "FTT10h"),
    "T5": ("TP7", "TTP7h", "CP5", "TPP7h", "TPP9h"),
    "T6": ("TP8", "TTP8h", "CP6", "TPP8h", "TPP10h"),
    "A1": ("TP9", "TP7", "T7", "FTT9h", "FT9"),
    "A2": ("TP10", "TP8", "T8", "FTT10h", "FT10"),
    "FZ": ("Fz", "AFF1h", "AFF2h", "FFC1h", "FFC2h"),
    "CZ": ("Cz", "FCC1h", "FCC2h", "CCP1h", "CCP2h"),
    "PZ": ("Pz", "CPP1h", "CPP2h", "POO1h", "PPO2h"),
    "T1": ("TTP7h", "C5", "TP7", "CP5", "CCP5h"),
    "T2": ("TTP8h", "C6", "TP8", "CP6", "CCP6h"),
}


@dataclass(frozen=True)
class MontageTarget:
    """One target channel and its ordered, nonempty source electrode list."""

    target_label: str
    sources: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "target_label", self.target_label.strip())
        sources = tuple(s.strip() for s in self.sources)
        if not sources or any(not s for s in sources):
            raise DomainError(f"target {self.target_label!r} needs nonempty sources")
        object.__setattr__(self, "sources", sources)


@dataclass(frozen=True)
class MontageMap:
    """Ordered mapping from the 23 target channels to source-label lists."""

    targets: tuple[MontageTarget, ...]

    def __post_init__(self):
        targets = tuple(self.targets)
        labels = [t.target_label for t in targets]
        if tuple(labels) != TARGET_ORDER:
            raise DomainError(
                "montage map must list exactly the 23 target channels "
                f"{TARGET_ORDER} in order, got {tuple(labels)}"
            )
        object.__setattr__(self, "targets", targets)

    def first_sources(self) -> MontageMap:
        """The map select mode aligns with: each target's nearest source only."""
        return MontageMap(targets=tuple(
            MontageTarget(t.target_label, t.sources[:1]) for t in self.targets
        ))


def builtin_montage() -> MontageMap:
    """The built-in default map (token ``builtin-table1``)."""
    return MontageMap(
        targets=tuple(
            MontageTarget(label, _BUILTIN_SOURCES[label]) for label in TARGET_ORDER
        )
    )


def alignment_index(channel_labels, timesteps: int, montage: MontageMap,
                    target_len: int) -> np.ndarray:
    """The (23, target_len) index into a window's E x T samples, flattened,
    that aligns it onto the 23 targets.

    A target with k sources contributes floor(target_len / k) samples per
    source; the first (target_len mod k) sources get one extra sample so the
    segments sum exactly to target_len. Sample i of a segment is source
    sample i mod T: a longer source keeps its head (stimulus-onset-aligned
    data carries the early evoked response), a shorter one is tiled. Missing
    or repeated electrodes raise AlignmentError naming the label.
    """
    if target_len < 1:
        raise DomainError(f"target_len must be >= 1, got {target_len}")
    if timesteps < 1:
        raise DomainError("cannot fit an empty signal")
    rows = {}
    for i, label in enumerate(str(lab).strip() for lab in channel_labels):
        if rows.setdefault(label, i) != i:
            raise AlignmentError(f"electrode label {label!r} appears more than once")
    index = np.empty((len(montage.targets), target_len), dtype=np.intp)
    for r, target in enumerate(montage.targets):
        k = len(target.sources)
        if k > target_len:
            raise DomainError(
                f"target {target.target_label} has {k} sources but target_len "
                f"is only {target_len}"
            )
        base, extra = divmod(target_len, k)
        offset = 0
        for j, source in enumerate(target.sources):
            if source not in rows:
                raise AlignmentError(
                    f"recording has no electrode {source!r} needed for target "
                    f"{target.target_label}"
                )
            seg_len = base + (1 if j < extra else 0)
            index[r, offset : offset + seg_len] = (
                rows[source] * timesteps + np.arange(seg_len) % timesteps)
            offset += seg_len
    return index


def mix_channels(data, channel_labels, montage: MontageMap,
                 target_len: int) -> np.ndarray:
    """Align (N, E, T) windows onto the 23 targets: (N, 23, target_len), by
    one C-contiguous ``take`` of ``alignment_index`` over the (E * T) axis
    into the output. ``data`` is an array or a source of rows with a shape,
    a dtype and ``blocks()`` yielding (first row, rows) in order, gathered a
    block at a time."""
    if not hasattr(data, "blocks"):
        data = np.asarray(data)
    if len(data.shape) != 3 or data.shape[1] != len(channel_labels):
        raise DimensionError(
            f"expected (N, {len(channel_labels)}, T) windows, got shape {data.shape}"
        )
    n, e, t = data.shape
    index = alignment_index(channel_labels, t, montage, target_len)
    out = np.empty((n, *index.shape), dtype=data.dtype)
    for first, rows in data.blocks() if hasattr(data, "blocks") else [(0, data)]:
        # The indices are in range: "clip" gathers straight into ``out``, unbuffered.
        rows.reshape(len(rows), e * t).take(index, axis=1, mode="clip",
                                            out=out[first:first + len(rows)])
    return out


def parse_montage_text(text: str) -> MontageMap:
    """Parse the plain-text map format: one ``TARGET: src1,src2,...`` per line."""
    targets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ManifestError(f"montage line {lineno} has no ':' separator: {raw!r}")
        label, _, rest = line.partition(":")
        sources = [s.strip() for s in rest.split(",") if s.strip()]
        if not sources:
            raise ManifestError(f"montage line {lineno} lists no sources: {raw!r}")
        targets.append(MontageTarget(label.strip(), tuple(sources)))
    return MontageMap(targets=tuple(targets))


def format_montage_text(montage: MontageMap) -> str:
    """Render a map in the plain-text format; round-trips parse_montage_text."""
    lines = [
        f"{t.target_label}: {','.join(t.sources)}" for t in montage.targets
    ]
    return "\n".join(lines) + "\n"


def montage_identity(montage: MontageMap) -> str:
    """Content hash naming a montage independent of where it was loaded from."""
    text = format_montage_text(montage).encode("utf-8")
    return "sha256:" + hashlib.sha256(text).hexdigest()[:16]


def load_montage(spec: str | Path) -> MontageMap:
    """Resolve a montage argument: the builtin token or a map file path."""
    if str(spec) == BUILTIN_MONTAGE_TOKEN:
        return builtin_montage()
    path = Path(spec)
    if not path.exists():
        raise ManifestError(f"montage map file not found: {path}")
    return parse_montage_text(read_text(path))
