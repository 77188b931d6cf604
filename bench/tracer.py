"""Span tracing from outside the program: wrap named functions of the
``eegadapt`` modules, keep every span in memory, and derive self time.

A span name is ``<module>.<function>`` (or ``<module>.<Class>.<method>``)
and names the place a caller looks the function up. Modules import by name
(``from .nnops import softmax_last``), so a wrapper is installed in every
module namespace that holds the same object, except that a function defined
elsewhere is wrapped only in the named module: ``encoder.softmax_last`` is
the encoder's softmax, not the one ``training`` applies to logits.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# Spans whose ``.bytes`` the benchmark reports. The count is computed, not
# measured: the sizes of the ndarrays passed in plus those returned.
BYTES_SPANS = (
    "encoder.softmax_last",
    "manifest.load_recording",
    "filters.apply_chain_to_rows",
    "fileio.write_bundle",
    "fileio.read_bundle",
)

SPANS = (
    # encoder
    "encoder.encoder_forward_batch",
    "encoder.encoder_backward_batch",
    "encoder.softmax_last",
    "encoder.softmax_backward",
    "encoder.layer_norm_forward",
    "encoder.layer_norm_backward",
    "encoder.gelu",
    "encoder.gelu_grad",
    # adapter
    "adapter.adapter_forward_batch",
    "adapter.adapter_backward_batch",
    "adapter.conv1d_forward",
    "adapter.conv1d_backward",
    "adapter.gelu",
    "adapter.gelu_grad",
    # training / model
    "training.train_loop",
    "training.evaluate",
    "training.predict",
    "training.cross_entropy_batch",
    "training.AdamW.step",
    "model.EegClassifier.embed_batch",
    # data path
    "manifest.load_recording",
    "filters.apply_chain_to_rows",
    "core.extract_windows",
    "montage.mix_channels",
    "pipeline.preprocess_manifest",
    "pipeline.align_window_set",
    # I/O and the rest
    "fileio.write_bundle",
    "fileio.read_bundle",
    "fileio.write_embeddings_text",
    "fileio.read_embeddings_text",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "zeroshot.linear_svm",
    "zeroshot.knn",
    "zeroshot.kmeans_fit",
    "cli.main",
)


def array_bytes(obj, depth: int = 3) -> int:
    """Bytes of the ndarrays in ``obj``, looking into containers and a
    ``.data`` attribute up to ``depth`` levels down."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, depth - 1) for v in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(v, depth - 1) for v in obj.values())
    data = getattr(obj, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


class Tracer:
    """Nested spans recorded with ``perf_counter_ns``.

    ``spans`` holds ``(name_index, start_ns, end_ns, parent_span_index)``
    for every finished span. Totals of self time, calls and computed bytes
    are kept per name as spans close.
    """

    def __init__(self):
        self.names = list(SPANS)
        self.spans: list[tuple[int, int, int, int]] = []
        self.self_ns = dict.fromkeys(SPANS, 0)
        self.calls = dict.fromkeys(SPANS, 0)
        self.bytes = dict.fromkeys(BYTES_SPANS, 0)
        self.iterations: list[tuple[int, int]] = []  # traced (start_ns, end_ns)
        self._stack: list[list] = []  # [name_index, start_ns, child_ns, span_id]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        index = self.names.index(name)
        count_bytes = name in BYTES_SPANS
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [index, 0, 0, len(spans)]
            spans.append(None)  # reserve the id so children can name it
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                parent = stack[-1][3] if stack else -1
                spans[frame[3]] = (index, frame[1], end, parent)
                self.self_ns[name] += duration - frame[2]
                self.calls[name] += 1
            if count_bytes:
                self.bytes[name] += array_bytes(args) + array_bytes(kwargs) \
                    + array_bytes(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every named function where its callers look it up."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key.startswith("eegadapt.") and m is not None]
        for name in self.names:
            module_name, *attrs = name.split(".")
            owner = importlib.import_module(f"eegadapt.{module_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            wrapper = self._wrap(name, original)
            if len(attrs) > 1 or original.__module__ != owner.__name__:
                targets = [owner]  # a method, or a function imported into owner
            else:
                targets = [m for m in modules
                           if getattr(m, attrs[-1], None) is original]
            for target in targets:
                self._patches.append((target, attrs[-1], original))
                setattr(target, attrs[-1], wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- results

    def self_seconds(self) -> dict[str, float]:
        return {name: ns / 1e9 for name, ns in self.self_ns.items()}

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "span_fields": ["name_index", "start_ns", "end_ns", "parent_span"],
            "spans": self.spans,
            "iterations": self.iterations,
            "self_s": self.self_seconds(),
            "calls": self.calls,
            "bytes_computed": self.bytes,
        }
