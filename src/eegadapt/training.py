"""Deterministic mini-batch training: cross entropy, optimizers and metrics.

Losses are computed in double precision. Serial runs with a fixed seed are
bitwise reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError
from .nnops import softmax_last

logger = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "LabeledSet",
    "MetricsReport",
    "EpochStats",
    "TrainResult",
    "cross_entropy_batch",
    "AdamW",
    "Sgd",
    "train_loop",
    "predict",
    "evaluate",
    "metrics_from_confusion",
    "format_metrics_report",
]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    optimizer: str = "adamw"
    seed: int = 0
    freeze_bfm: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ConfigurationError("learning_rate and weight_decay must be >= 0")
        if self.optimizer not in ("adamw", "sgd"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class LabeledSet:
    """A split: x (N, C, T) as an array or a model's source of rows, y
    (N,), one subject per row."""

    x: np.ndarray
    y: np.ndarray
    subjects: np.ndarray | None = None  # (N,) str; all "" when not given

    def __post_init__(self):
        if not hasattr(self.x, "blocks"):  # a model's source of rows stays one
            self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        if self.x.shape[0] != self.y.shape[0]:
            raise ConfigurationError(
                f"{self.x.shape[0]} samples but {self.y.shape[0]} labels"
            )
        if self.subjects is None:
            self.subjects = [""] * self.y.shape[0]
        self.subjects = np.asarray(self.subjects, dtype=str)
        if self.subjects.shape != self.y.shape:
            raise ConfigurationError("subjects do not align with labels")

    def __len__(self) -> int:
        return int(self.y.shape[0])


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over a batch and the gradient of that mean.

    Returns (loss, dlogits) with dlogits already divided by the batch size.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, k = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise DomainError(f"labels out of range for {k} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    losses = log_z - shifted[np.arange(n), labels]
    grad = np.exp(shifted - log_z[:, None])
    grad[np.arange(n), labels] -= 1.0
    return float(losses.mean()), grad / n


def _cosine_lr(lr: float, t: int, total_steps: int) -> float:
    """Learning rate at step ``t``: cosine decay from ``lr`` to 0 over
    ``total_steps``."""
    frac = min(t, total_steps) / total_steps
    return lr * 0.5 * (1.0 + np.cos(np.pi * frac))


class Sgd:
    """Gradient descent with decoupled weight decay and cosine learning-rate
    decay over ``total_steps``. ``arrays`` maps names to arrays; a step updates
    in place exactly those its ``grads`` name, so the gradients decide what
    trains: ``p -= lr_t * (direction + weight_decay * p)``."""

    def __init__(self, arrays: dict[str, np.ndarray], lr: float,
                 weight_decay: float, total_steps: int):
        self.arrays = arrays
        self.lr = lr
        self.weight_decay = weight_decay
        self.total_steps = total_steps
        self.t = 0
        self.state: dict[str, tuple] = {}  # per array, from its first step

    def _direction(self, name: str, g: np.ndarray) -> np.ndarray:
        return g

    def step(self, grads: dict[str, np.ndarray]) -> None:
        lr_t = _cosine_lr(self.lr, self.t, self.total_steps)
        self.t += 1
        for name, g in grads.items():
            p = self.arrays[name]
            p -= lr_t * (self._direction(name, g) + self.weight_decay * p)


class AdamW(Sgd):
    """Adam (betas 0.9 and 0.999, eps 1e-8) as the step direction; an array's
    two moment buffers are allocated at its first step and reused after."""

    def _direction(self, name: str, g: np.ndarray) -> np.ndarray:
        if name not in self.state:
            self.state[name] = (np.zeros_like(g), np.zeros_like(g))
        m, v = self.state[name]
        b1, b2 = 0.9, 0.999
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        bias1, bias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        return (m / bias1) / (np.sqrt(v / bias2) + 1e-8)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class TrainResult:
    """Per-epoch statistics and the selected epoch, with that epoch's
    argmax predictions on the validation split."""

    epochs: list[EpochStats]
    best_epoch: int
    best_val_accuracy: float
    val_predictions: np.ndarray


def predict(model, data: LabeledSet):
    """Argmax predictions and softmax probabilities for a split."""
    logits, _ = model.forward_batch(data.x)
    preds = np.argmax(logits, axis=1)
    return preds, softmax_last(logits)


@np.errstate(all="ignore")
def train_loop(model, train_set: LabeledSet, val_set: LabeledSet,
               cfg: TrainConfig) -> TrainResult:
    """Seeded epoch loop returning the best-validation-accuracy parameters.

    The training set is reshuffled each epoch with the run's generator;
    model selection keeps the earliest epoch on accuracy ties. The model is
    left holding the selected parameters. A step that overflows shows as a
    non-finite loss or logits, raised as a NumericError, so numpy's floating
    point warnings are off here (and on the pool's workers).
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ConfigurationError("train and validation splits must be nonempty")
    for split_name, split in (("train", train_set), ("val", val_set)):
        if split.y.max(initial=0) >= model.num_classes or split.y.min(initial=0) < 0:
            raise ConfigurationError(
                f"{split_name} split has labels outside 0..{model.num_classes - 1}"
            )

    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = -(-len(train_set) // cfg.batch_size)
    opt = (AdamW if cfg.optimizer == "adamw" else Sgd)(
        dict(model.named_arrays()), lr=cfg.learning_rate,
        weight_decay=cfg.weight_decay, total_steps=steps_per_epoch * cfg.epochs)

    stats: list[EpochStats] = []
    best_epoch = -1
    best_val_acc = -1.0
    best_params: dict[str, np.ndarray] | None = None
    best_val_preds: np.ndarray | None = None

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_set))
        loss_sum = 0.0
        hit_sum = 0
        for step in range(steps_per_epoch):
            idx = order[step * cfg.batch_size : (step + 1) * cfg.batch_size]
            xb, yb = train_set.x[idx], train_set.y[idx]
            loss, logits, grads = model.loss_and_grads(xb, yb, cross_entropy_batch,
                                                       freeze_bfm=cfg.freeze_bfm)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {step}")
            opt.step(grads)
            loss_sum += loss * len(idx)
            hit_sum += int(np.sum(np.argmax(logits, axis=1) == yb))
        train_loss = loss_sum / len(train_set)
        train_acc = hit_sum / len(train_set)

        val_logits, _ = model.forward_batch(val_set.x)
        val_loss, _ = cross_entropy_batch(val_logits, val_set.y)
        val_preds = np.argmax(val_logits, axis=1)
        val_acc = float(np.mean(val_preds == val_set.y))
        stats.append(EpochStats(epoch, train_loss, train_acc, val_loss, val_acc))
        logger.debug("epoch %d train_loss=%.4f train_acc=%.4f val_acc=%.4f",
                     epoch, train_loss, train_acc, val_acc)
        if val_acc > best_val_acc:
            best_val_acc = val_acc
            best_epoch = epoch
            best_val_preds = val_preds
            best_params = {name: p.copy() for name, p in model.named_arrays()}

    for name, p in model.named_arrays():
        np.copyto(p, best_params[name])
    return TrainResult(epochs=stats, best_epoch=best_epoch,
                       best_val_accuracy=best_val_acc,
                       val_predictions=best_val_preds)


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy plus support-weighted precision/recall/F1 and the confusion
    matrix (rows true, columns predicted)."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: np.ndarray

    @property
    def num_samples(self) -> int:
        return int(self.confusion.sum())


def metrics_from_confusion(confusion: np.ndarray) -> MetricsReport:
    """Derive the report from a K x K confusion matrix of counts."""
    conf = np.asarray(confusion, dtype=np.int64)
    total = conf.sum()
    if total == 0:
        raise DomainError("confusion matrix is empty")
    support = conf.sum(axis=1).astype(np.float64)
    predicted = conf.sum(axis=0).astype(np.float64)
    diag = np.diag(conf).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision_c = np.where(predicted > 0, diag / predicted, 0.0)
        recall_c = np.where(support > 0, diag / support, 0.0)
        denom = precision_c + recall_c
        f1_c = np.where(denom > 0, 2.0 * precision_c * recall_c / denom, 0.0)
    weights = support / total
    return MetricsReport(
        accuracy=float(diag.sum() / total),
        precision=float(np.sum(weights * precision_c)),
        recall=float(np.sum(weights * recall_c)),
        f1=float(np.sum(weights * f1_c)),
        confusion=conf,
    )


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     num_classes: int) -> np.ndarray:
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(conf, (np.asarray(y_true, dtype=np.int64),
                     np.asarray(y_pred, dtype=np.int64)), 1)
    return conf


def evaluate(model, data: LabeledSet) -> MetricsReport:
    """Argmax predictions over a split, summarized as a MetricsReport."""
    if len(data) == 0:
        raise ConfigurationError("cannot evaluate an empty split")
    logits, _ = model.forward_batch(data.x)
    conf = confusion_matrix(data.y, np.argmax(logits, axis=1), model.num_classes)
    return metrics_from_confusion(conf)


def format_metrics_report(report: MetricsReport, header_lines=()) -> str:
    """Render a report as the structured text document the CLI emits."""
    lines = list(header_lines)
    lines.append("metrics-report v1")
    lines.append(f"samples = {report.num_samples}")
    lines.append("averaging = weighted")
    lines.append(f"accuracy = {report.accuracy!r}")
    lines.append(f"precision = {report.precision!r}")
    lines.append(f"recall = {report.recall!r}")
    lines.append(f"f1 = {report.f1!r}")
    lines.append("confusion (rows true, cols predicted):")
    for row in report.confusion:
        lines.append("  " + " ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"

