"""Checks that only the tests use: finite-difference gradient verification,
a forced chunk size, k-means scored against labels, delimited-text
recordings written out, synthetic datasets held in memory, and the peak of
traced allocations during a call."""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eegadapt import model
from eegadapt.errors import PipelineError
from eegadapt.fileio import write_text
from eegadapt.synthetic import SynthSpec, _recordings
from eegadapt.training import cross_entropy_batch
from eegadapt.zeroshot import _match_clusters, kmeans_fit


class GradientCheckError(PipelineError):
    """Analytic gradients disagree with finite differences."""


@dataclass
class GradCheckReport:
    coordinates_checked: int
    max_rel_error: float
    worst: tuple[str, int, float, float]
    failures: list[tuple[str, int, float, float, float]]


def gradient_check(model, x: np.ndarray, labels,
                   num_coordinates: int = 200, h: float = 1e-5,
                   tolerance: float = 1e-4, seed: int = 0) -> GradCheckReport:
    """Compare the gradients of ``model.loss_and_grads`` with central finite
    differences.

    Perturbs a random subset of parameter coordinates (at least
    ``num_coordinates`` spread over all arrays) on the mean cross-entropy
    loss of the batch ``x`` (N, C, T) with ``labels`` (N,). Relative error
    uses max(|analytic|, |numeric|, 1e-4) as the denominator so near-zero
    gradients are judged absolutely. Raises GradientCheckError when the
    tolerance is exceeded.
    """
    arrays = model.named_arrays()
    sizes = np.array([p.size for _, p in arrays])
    total = int(sizes.sum()) if arrays else 0
    if total == 0:
        return GradCheckReport(coordinates_checked=0, max_rel_error=0.0,
                               worst=("", -1, 0.0, 0.0), failures=[])

    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _, _, grads = model.loss_and_grads(x, labels, cross_entropy_batch)

    def loss_only() -> float:
        logits, _ = model.forward_batch(x)
        return cross_entropy_batch(logits, labels)[0]

    rng = np.random.default_rng(seed)
    count = min(num_coordinates, total)
    flat_choices = rng.choice(total, size=count, replace=False)
    bounds = np.cumsum(sizes)

    failures = []
    worst = ("", -1, 0.0, 0.0)
    max_rel = 0.0
    for flat_index in np.sort(flat_choices):
        array_idx = int(np.searchsorted(bounds, flat_index, side="right"))
        offset = int(flat_index - (bounds[array_idx - 1] if array_idx else 0))
        name, p = arrays[array_idx]
        view = p.reshape(-1)
        original = view[offset]
        view[offset] = original + h
        loss_plus = loss_only()
        view[offset] = original - h
        loss_minus = loss_only()
        view[offset] = original
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        analytic = float(grads[name].reshape(-1)[offset])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)
        if rel > max_rel:
            max_rel = rel
            worst = (name, offset, analytic, numeric)
        if rel > tolerance:
            failures.append((name, offset, analytic, numeric, rel))

    report = GradCheckReport(
        coordinates_checked=count,
        max_rel_error=max_rel,
        worst=worst,
        failures=failures,
    )
    if failures:
        sample = ", ".join(f"{n}[{i}]" for n, i, *_ in failures[:5])
        raise GradientCheckError(
            f"{len(failures)} coordinate(s) exceed tolerance {tolerance} "
            f"(max rel error {max_rel:.3e}): {sample}"
        )
    return report


def forward_chunk_bytes(chunk, cfg):
    """The chunk budget under which the forward and training step of a model
    with this encoder config run over chunks of ``chunk`` samples."""
    return chunk * 21 * cfg.num_channels * cfg.max_patches * cfg.embed_dim * 8


def force_forward_chunk(monkeypatch, chunk, cfg):
    """Make the forward and training step of a model with this encoder config
    run over chunks of ``chunk`` samples."""
    monkeypatch.setattr(model, "_FORWARD_CHUNK_BYTES", forward_chunk_bytes(chunk, cfg))
    assert model._forward_chunk(cfg) == chunk


def kmeans_accuracy(x: np.ndarray, labels: np.ndarray, k: int,
                    seed: int = 0) -> float:
    """Cluster, optimally match clusters to labels, and score the agreement."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    _, assign = kmeans_fit(x, k, seed=seed)
    _, agreement = _match_clusters(assign, labels, k)
    return agreement / labels.shape[0]


def write_recording_text(path: str | Path, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=np.float64)
    lines = [",".join(repr(float(v)) for v in row) for row in data]
    write_text(path, "\n".join(lines) + "\n")


def generate_arrays(spec: SynthSpec):
    """In-memory dataset: {split: (x (N, C, T), y (N,), subjects)}."""
    out = {s: ([], [], []) for s in ("train", "val", "test")}
    for split, sid, cls, rec in _recordings(spec):
        xs, ys, subs = out[split]
        xs.append(rec)
        ys.append(cls)
        subs.append(sid)
    return {
        split: (np.stack(xs), np.array(ys, dtype=np.int64), subs)
        for split, (xs, ys, subs) in out.items()
    }


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak bytes traced by tracemalloc during the
    call)``; tracing stops even when ``fn`` raises."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
