"""Checkpoint serialization: model configs, parameters, class table, and the
preprocessing fingerprint, stored bit-exactly in the array-bundle format.

Loading reproduces every parameter array exactly; the fingerprint lets
inference refuse data that was prepared differently than the training run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .adapter import AdapterConfig, ConvLayerSpec
from .encoder import BfmConfig
from .errors import IntegrityError
from .fileio import read_bundle, write_bundle
from .model import EegClassifier, build_classifier

CHECKPOINT_VERSION = 1

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint"]


@dataclass
class Checkpoint:
    model: EegClassifier
    classes: dict[str, int]
    fingerprint: dict
    version: int = CHECKPOINT_VERSION


def _adapter_config_meta(cfg: AdapterConfig | None):
    if cfg is None:
        return None
    meta = asdict(cfg)
    meta["layers"] = [asdict(layer) for layer in cfg.layers]
    return meta


def _adapter_config_from_meta(meta) -> AdapterConfig | None:
    if meta is None:
        return None
    layers = tuple(ConvLayerSpec(**layer) for layer in meta["layers"])
    return AdapterConfig(
        in_channels=meta["in_channels"],
        in_timesteps=meta["in_timesteps"],
        out_channels=meta["out_channels"],
        out_timesteps=meta["out_timesteps"],
        layers=layers,
    )


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    model = ckpt.model
    meta = {
        "kind": "checkpoint",
        "version": ckpt.version,
        "adapter_config": _adapter_config_meta(model.adapter_config),
        "encoder_config": asdict(model.encoder_config),
        "classes": ckpt.classes,
        "fingerprint": ckpt.fingerprint,
    }
    write_bundle(path, meta, model.named_arrays())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, refusing a meta or array table that does not match.

    The stored configs describe the model; every array it names must be
    present with exactly its shape, and no other array may be present.
    """
    meta, arrays = read_bundle(path)
    if meta.get("kind") != "checkpoint":
        raise IntegrityError(f"{path} is not a checkpoint bundle")
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise IntegrityError(
            f"{path} has checkpoint version {version!r}; this build reads "
            f"version {CHECKPOINT_VERSION}"
        )
    for key in ("encoder_config", "classes", "fingerprint"):
        if not isinstance(meta.get(key), dict):
            raise IntegrityError(f"{path}: checkpoint meta has no {key!r} table")
    try:
        model = build_classifier(
            BfmConfig(**meta["encoder_config"]),
            _adapter_config_from_meta(meta.get("adapter_config")),
            seed=0,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IntegrityError(f"{path}: malformed checkpoint meta: {exc!r}") from exc
    classes = meta["classes"]
    if not all(type(v) is int for v in classes.values()) \
            or sorted(classes.values()) != list(range(model.num_classes)):
        raise IntegrityError(
            f"{path}: 'classes' must map names to the head indices "
            f"0..{model.num_classes - 1}, got {sorted(classes.values())}"
        )

    expected = dict(model.named_arrays())
    problems = [f"missing {n}" for n in expected if n not in arrays]
    problems += [f"unexpected {n}" for n in arrays if n not in expected]
    problems += [
        f"{n} has shape {arrays[n].shape}, expected {a.shape}"
        for n, a in expected.items()
        if n in arrays and arrays[n].shape != a.shape
    ]
    if problems:
        raise IntegrityError(
            f"{path}: arrays do not match the stored configs: " + "; ".join(problems)
        )
    for name, arr in expected.items():
        arr[...] = arrays[name]
    return Checkpoint(model=model, classes=classes,
                      fingerprint=meta["fingerprint"], version=version)
