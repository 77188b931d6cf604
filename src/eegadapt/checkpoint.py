"""Checkpoint serialization: model configs, parameters, class table, and the
preprocessing fingerprint, stored bit-exactly in the array-bundle format.

Loading reproduces every parameter array exactly; the fingerprint lets
inference refuse data that was prepared differently than the training run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .adapter import AdapterConfig, ConvLayerSpec, adapter_param_shapes
from .encoder import BfmConfig, encoder_param_shapes
from .errors import IntegrityError, require_class_table
from .fileio import checksummed, open_document, write_bundle
from .model import EegClassifier

CHECKPOINT_VERSION = 1

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint"]


@dataclass
class Checkpoint:
    model: EegClassifier
    classes: dict[str, int]
    fingerprint: dict


def _adapter_config_from_meta(meta) -> AdapterConfig | None:
    if meta is None:
        return None
    layers = tuple(ConvLayerSpec(**layer) for layer in meta["layers"])
    return AdapterConfig(**{**meta, "layers": layers})


def _param_shapes(encoder: BfmConfig, adapter: AdapterConfig | None):
    """(name, shape) of every array the configs imply, in checkpoint order."""
    if adapter is not None:
        yield from ((f"adapter.{n}", s) for n, s in adapter_param_shapes(adapter))
    yield from ((f"encoder.{n}", s) for n, s in encoder_param_shapes(encoder))


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    model, adapter = ckpt.model, ckpt.model.adapter_config
    meta = {
        "kind": "checkpoint",
        "version": CHECKPOINT_VERSION,
        "adapter_config": None if adapter is None else asdict(adapter),
        "encoder_config": asdict(model.encoder_config),
        "classes": ckpt.classes,
        "fingerprint": ckpt.fingerprint,
    }
    write_bundle(path, meta, model.named_arrays())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, refusing a meta or array table that does not match.

    The stored configs describe the model; every array it names must be
    present with exactly its shape, and no other array may be present. The
    model holds the arrays as read, cast to float64 where stored narrower.
    """
    with checksummed(path):  # a corrupt file is reported as such first
        reader = open_document(path, "checkpoint", CHECKPOINT_VERSION,
                               (("encoder_config", dict), ("fingerprint", dict)))
    meta, arrays = reader.meta, reader.whole()
    try:
        encoder_config = BfmConfig(**meta["encoder_config"])
        adapter_config = _adapter_config_from_meta(meta.get("adapter_config"))
        # The configs are checked against the stored arrays before anything
        # is built, so a crafted meta cannot allocate what it describes; one
        # name past the stored count is enough to report a missing array.
        shapes = dict(islice(_param_shapes(encoder_config, adapter_config),
                             len(arrays) + 1))
        problems = [f"missing {n}" for n in shapes if n not in arrays]
        problems += [f"unexpected {n}" for n in arrays if n not in shapes]
        problems += [
            f"{n} has shape {arrays[n].shape} and dtype {arrays[n].dtype}, "
            f"expected {shape} floats"
            for n, shape in shapes.items()
            if n in arrays and (arrays[n].shape != shape or arrays[n].dtype.kind != "f")
        ]
        if problems:
            raise IntegrityError(f"{path}: malformed checkpoint, arrays do not "
                                 "match the stored configs: " + "; ".join(problems))
        params = {"adapter": {}, "encoder": {}}
        for name in shapes:
            part, short = name.split(".", 1)
            params[part][short] = arrays[name].astype(np.float64, copy=False)
        model = EegClassifier(
            encoder_config=encoder_config,
            encoder=params["encoder"],
            adapter_config=adapter_config,
            adapter=None if adapter_config is None else params["adapter"],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IntegrityError(f"{path}: malformed checkpoint meta: {exc!r}") from exc
    classes = require_class_table(meta.get("classes"), IntegrityError,
                                  f"{path}: 'classes'", model.num_classes)
    return Checkpoint(model=model, classes=classes,
                      fingerprint=meta["fingerprint"])
