"""Synthetic multichannel datasets standing in for proprietary corpora.

Each class is a mixture of sinusoids at a class-specific fundamental (plus
a 1.5x harmonic) with per-channel phase and amplitude jitter and additive
Gaussian noise. Classes are separable by spectral content, which is what
the temporal-convolution front end is built to pick up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fileio import write_recording_binary, write_text
from .montage import TARGET_ORDER, MontageMap, MontageTarget, format_montage_text

__all__ = ["SynthSpec", "class_frequencies", "synth_recording",
           "synthetic_montage", "write_synthetic_dataset"]


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int = 4
    channels: int = 16
    timesteps: int = 256
    sample_rate_hz: float = 200.0
    noise: float = 0.3
    counts: tuple = (800, 200, 200)
    subjects: tuple = (8, 2, 2)
    seed: int = 0
    # "per-recording" rotates classes within a subject (stimulus decoding);
    # "per-subject" fixes one class per subject (clinical diagnosis).
    label_mode: str = "per-recording"

    def __post_init__(self):
        for name in ("num_classes", "channels", "timesteps"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ConfigurationError(
                f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigurationError(f"noise must be finite and >= 0, got {self.noise}")
        for split, count, n_subj in zip(("train", "val", "test"),
                                        self.counts, self.subjects):
            if count < 0 or n_subj < 0:
                raise ConfigurationError(
                    f"{split} counts and subjects must be >= 0, got "
                    f"{count} and {n_subj}")
            if count and not n_subj:
                raise ConfigurationError(
                    f"{split} subjects must be >= 1 for {count} recordings")


def class_frequencies(num_classes: int) -> np.ndarray:
    """Fundamentals spread over 6..38 Hz; harmonics stay inside the band
    and clear of the 50 Hz notch."""
    if num_classes == 1:
        return np.array([20.0])
    return 6.0 + np.arange(num_classes) * (32.0 / (num_classes - 1))


def synth_recording(rng: np.random.Generator, class_id: int,
                    spec: SynthSpec, subject_phase: float = 0.0) -> np.ndarray:
    freq = class_frequencies(spec.num_classes)[class_id]
    t = np.arange(spec.timesteps) / spec.sample_rate_hz
    data = np.empty((spec.channels, spec.timesteps))
    for ch in range(spec.channels):
        amp = rng.uniform(0.8, 1.2)
        phase = rng.uniform(0.0, 2.0 * np.pi) + subject_phase
        phase2 = rng.uniform(0.0, 2.0 * np.pi)
        data[ch] = (
            amp * np.sin(2.0 * np.pi * freq * t + phase)
            + 0.5 * amp * np.sin(2.0 * np.pi * 1.5 * freq * t + phase2)
            + rng.normal(0.0, spec.noise, spec.timesteps)
        )
    return data


def _recordings(spec: SynthSpec):
    """Yield (split, subject, class, recording) in plan order, balanced per
    split; the one place that fixes the order of the generator's draws."""
    rng = np.random.default_rng(spec.seed)
    subject_phase = {}
    first = 0
    for split, count, n_subj in zip(("train", "val", "test"),
                                    spec.counts, spec.subjects):
        for i in range(count):
            subject = first + i % n_subj
            if spec.label_mode == "per-subject":
                cls = subject % spec.num_classes
            else:
                cls = i % spec.num_classes
            if subject not in subject_phase:
                subject_phase[subject] = rng.uniform(0.0, 2.0 * np.pi)
            rec = synth_recording(rng, cls, spec, subject_phase[subject])
            yield split, f"s{subject:02d}", cls, rec
        first += n_subj


def synthetic_montage(channels: int) -> MontageMap:
    """A montage map whose sources are the synthetic channel labels, three
    candidates per target."""
    labels = [f"ch{c:02d}" for c in range(channels)]
    targets = []
    for i, target in enumerate(TARGET_ORDER):
        sources = tuple(
            labels[(i * (j + 1) + j) % channels] for j in range(3)
        )
        # Deduplicate while keeping order; a target must not repeat a source.
        seen = []
        for s in sources:
            if s not in seen:
                seen.append(s)
        targets.append(MontageTarget(target, tuple(seen)))
    return MontageMap(targets=tuple(targets))


def write_synthetic_dataset(out_dir: str | Path, spec: SynthSpec) -> Path:
    """Write recordings, a montage map, and a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    rec_dir = out_dir / "recordings"
    rec_dir.mkdir(parents=True, exist_ok=True)
    channel_labels = [f"ch{c:02d}" for c in range(spec.channels)]
    classes = {f"class{c}": c for c in range(spec.num_classes)}

    entries = []
    for i, (split, sid, cls, rec) in enumerate(_recordings(spec)):
        rel = f"recordings/rec{i:05d}.raw"
        write_recording_binary(out_dir / rel, rec)
        entries.append({
            "path": rel,
            "format": "f32-binary",
            "channel_labels": channel_labels,
            "sample_rate_hz": spec.sample_rate_hz,
            "label": f"class{cls}",
            "subject_id": sid,
            "split": split,
        })

    write_text(out_dir / "montage_map.txt",
               format_montage_text(synthetic_montage(spec.channels)))
    manifest = {
        "classes": classes,
        "montage": "montage_map.txt",
        "recordings": entries,
    }
    manifest_path = out_dir / "manifest.json"
    write_text(manifest_path, json.dumps(manifest, indent=1, sort_keys=True))
    return manifest_path
