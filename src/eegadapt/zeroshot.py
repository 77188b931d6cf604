"""Zero-shot evaluation on unseen classes and subject-level aggregation.

The downstream classifiers are deliberately small and fully deterministic
under a fixed seed: a one-vs-rest linear SVM trained by subgradient descent
on the hinge loss, a majority-vote KNN, and k-means scored through an
optimal cluster-to-label assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DomainError, NumericError, ProtocolError
from .training import confusion_matrix, metrics_from_confusion

__all__ = [
    "ZeroShotProtocol",
    "SubjectPrediction",
    "linear_svm",
    "knn",
    "kmeans_fit",
    "best_cluster_assignment",
    "run_zeroshot",
    "subject_aggregate",
]


@dataclass(frozen=True)
class ZeroShotProtocol:
    """Stratified fit/eval protocol for classifiers on held-out classes."""

    held_out_classes: frozenset
    fit_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "held_out_classes",
                           frozenset(int(c) for c in self.held_out_classes))
        if len(self.held_out_classes) < 2:
            raise ProtocolError("need at least 2 held-out classes")
        if not 0.0 < self.fit_fraction < 1.0:
            raise ProtocolError(
                f"fit_fraction must lie in (0, 1), got {self.fit_fraction}"
            )


def linear_svm(fit_x: np.ndarray, fit_y: np.ndarray, eval_x: np.ndarray,
               seed: int = 0) -> np.ndarray:
    """One-vs-rest linear SVM trained by seeded mini-batch subgradient descent.

    Hinge loss with L2 regularization ``reg`` = 1e-3, learning rate
    1/(reg * t), 100 passes in batches of 32. Prediction is the argmax
    margin; ties fall to the lower class index because classes are scanned
    in ascending order.
    """
    fit_x = np.asarray(fit_x, dtype=np.float64)
    fit_y = np.asarray(fit_y, dtype=np.int64).reshape(-1)
    eval_x = np.asarray(eval_x, dtype=np.float64)
    classes = np.unique(fit_y)
    if classes.size < 2:
        raise DomainError("linear SVM needs at least 2 classes to fit")

    reg = 1e-3
    n, dim = fit_x.shape
    bs = min(32, n)
    w = np.zeros((classes.size, dim))
    b = np.zeros(classes.size)
    signs = np.where(fit_y[:, None] == classes[None, :], 1.0, -1.0)  # (N, K)

    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(100):
        order = rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            t += 1
            lr = 1.0 / (reg * t)
            xb = fit_x[idx]
            yb = signs[idx]                   # (B, K)
            margins = yb * (xb @ w.T + b)     # (B, K)
            viol = (margins < 1.0).astype(np.float64)
            coeff = (viol * yb) / len(idx)    # (B, K)
            w += lr * (coeff.T @ xb) - lr * reg * w
            b += lr * coeff.sum(axis=0)
    scores = eval_x @ w.T + b
    return classes[np.argmax(scores, axis=1)]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances between rows."""
    return (
        np.sum(a**2, axis=1)[:, None]
        - 2.0 * a @ b.T
        + np.sum(b**2, axis=1)[None, :]
    )


def knn(fit_x: np.ndarray, fit_y: np.ndarray, eval_x: np.ndarray,
        k: int = 5) -> np.ndarray:
    """Euclidean k-nearest-neighbor with majority vote.

    Distance ties resolve to the lower fit index (stable sort); vote ties
    resolve to the smallest class index.
    """
    fit_x = np.asarray(fit_x, dtype=np.float64)
    fit_y = np.asarray(fit_y, dtype=np.int64).reshape(-1)
    eval_x = np.asarray(eval_x, dtype=np.float64)
    if k < 1 or k > fit_x.shape[0]:
        raise DomainError(f"k must lie in [1, {fit_x.shape[0]}], got {k}")
    classes, mapped = np.unique(fit_y, return_inverse=True)
    d2 = _sq_dists(eval_x, fit_x)
    neighbor_idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = mapped[neighbor_idx]
    preds = np.empty(eval_x.shape[0], dtype=np.int64)
    for i in range(eval_x.shape[0]):
        counts = np.bincount(votes[i], minlength=classes.size)
        preds[i] = classes[np.argmax(counts)]
    return preds


def kmeans_fit(x: np.ndarray, k: int,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ then Lloyd iterations; returns (centroids, assignments).

    Convergence is a maximum centroid shift below 1e-8 or 300 sweeps. An
    emptied cluster is reseeded at the point farthest from its assigned
    centroid, a deterministic rule.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k < 1 or k > n:
        raise DomainError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = x[rng.integers(n)]
        else:
            centroids[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))

    assign = np.zeros(n, dtype=np.int64)
    for _ in range(300):
        dist = _sq_dists(x, centroids)
        assign = np.argmin(dist, axis=1)
        new_centroids = centroids.copy()
        assigned_dist = dist[np.arange(n), assign].copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_centroids[j] = x[members].mean(axis=0)
            else:
                far = int(np.argmax(assigned_dist))
                new_centroids[j] = x[far]
                assign[far] = j
                assigned_dist[far] = -1.0
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < 1e-8:
            break
    return centroids, assign


def best_cluster_assignment(contingency: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Optimal one-to-one cluster-to-label matching maximizing agreement.

    ``contingency[i, j]`` counts samples in cluster i with label j. Returns
    (cluster indices, matched label columns, total agreement).
    """
    contingency = np.asarray(contingency, dtype=np.int64)
    rows, cols = linear_sum_assignment(-contingency)
    return rows, cols, int(contingency[rows, cols].sum())


def _match_clusters(assign: np.ndarray, labels: np.ndarray, k: int):
    """Optimal one-to-one matching of k clusters to the labels present;
    returns ({cluster: label}, number of samples the matching agrees on)."""
    classes, mapped = np.unique(labels, return_inverse=True)
    contingency = np.zeros((k, classes.size), dtype=np.int64)
    np.add.at(contingency, (assign, mapped), 1)
    rows, cols, agreement = best_cluster_assignment(contingency)
    return {int(r): int(classes[c]) for r, c in zip(rows, cols)}, agreement


def _stratified_split(labels: np.ndarray, fit_fraction: float,
                      rng: np.random.Generator):
    fit_idx, eval_idx = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        n_fit = int(round(members.size * fit_fraction))
        n_fit = min(max(n_fit, 1), members.size - 1)
        if n_fit < 2:
            raise ProtocolError(
                f"class {cls} has only {members.size} samples; at least 2 are "
                "needed in the fit portion"
            )
        fit_idx.extend(members[:n_fit])
        eval_idx.extend(members[n_fit:])
    return np.array(sorted(fit_idx)), np.array(sorted(eval_idx))


def run_zeroshot(embeddings: np.ndarray, labels: np.ndarray,
                 protocol: ZeroShotProtocol, knn_k: int = 5) -> dict[str, float]:
    """Fit the three downstream classifiers on held-out-class embeddings.

    ``embeddings`` (N, D) and ``labels`` (N,) are row aligned, as
    ``read_embeddings_text`` returns them. Samples are restricted to the protocol's held-out classes, split
    stratified per class by ``fit_fraction`` with the protocol seed. SVM and
    KNN fit on the fit portion and are scored on the eval portion; k-means
    fits centroids on the fit portion, matches clusters to labels there, and
    scores the matched labeling on the eval portion.
    """
    held = np.array(sorted(protocol.held_out_classes))
    mask = np.isin(labels, held)
    x = embeddings[mask]
    y = labels[mask]
    present = np.unique(y)
    missing = set(held.tolist()) - set(present.tolist())
    if missing:
        raise ProtocolError(f"no samples for held-out classes {sorted(missing)}")

    rng = np.random.default_rng(protocol.seed)
    fit_idx, eval_idx = _stratified_split(y, protocol.fit_fraction, rng)
    fit_x, fit_y = x[fit_idx], y[fit_idx]
    eval_x, eval_y = x[eval_idx], y[eval_idx]

    k = present.size
    # Finite but huge embeddings overflow the squared distances and the SVM
    # margins; the scores would then mean nothing, so refuse them.
    try:
        with np.errstate(over="raise", invalid="raise"):
            svm_pred = linear_svm(fit_x, fit_y, eval_x, seed=protocol.seed)
            knn_pred = knn(fit_x, fit_y, eval_x, k=knn_k)
            centroids, fit_assign = kmeans_fit(fit_x, k, seed=protocol.seed)
            eval_assign = np.argmin(_sq_dists(eval_x, centroids), axis=1)
    except FloatingPointError as exc:
        raise NumericError(
            f"zero-shot classifiers overflow on these embeddings ({exc})") from exc
    cluster_to_label, _ = _match_clusters(fit_assign, fit_y, k)
    km_pred = np.array([cluster_to_label.get(int(a), -1) for a in eval_assign])

    return {
        "svm": float(np.mean(svm_pred == eval_y)),
        "knn": float(np.mean(knn_pred == eval_y)),
        "kmeans": float(np.mean(km_pred == eval_y)),
    }


@dataclass(frozen=True)
class SubjectPrediction:
    """Per-subject vote summary with the aggregated label."""

    subject_id: str
    sample_predictions: np.ndarray
    aggregated_label: int
    vote_histogram: dict = field(default_factory=dict)


def subject_aggregate(subject_ids, pred_labels: np.ndarray, probs: np.ndarray,
                      true_labels: np.ndarray):
    """Majority-vote subject-level aggregation of sample predictions.

    Vote ties resolve to the label with the higher mean softmax probability
    over the subject's samples (then the lower index). Returns the subject
    predictions in sorted subject order plus a subject-level MetricsReport.
    A subject must carry one consistent true label.
    """
    subject_ids = list(subject_ids)
    pred_labels = np.asarray(pred_labels, dtype=np.int64).reshape(-1)
    probs = np.asarray(probs, dtype=np.float64)
    true_labels = np.asarray(true_labels, dtype=np.int64).reshape(-1)
    if not (len(subject_ids) == pred_labels.shape[0] == probs.shape[0]
            == true_labels.shape[0]):
        raise DomainError("subject ids, predictions, probs, and labels must align")

    num_classes = probs.shape[1]
    order: dict[str, list[int]] = {}
    for i, sid in enumerate(subject_ids):
        order.setdefault(str(sid), []).append(i)

    predictions = []
    agg_true, agg_pred = [], []
    for sid in sorted(order):
        idx = np.array(order[sid])
        truth = np.unique(true_labels[idx])
        if truth.size != 1:
            raise DomainError(f"subject {sid} carries mixed true labels {truth}")
        votes = np.bincount(pred_labels[idx], minlength=num_classes)
        tied = np.flatnonzero(votes == votes.max())
        winner = int(tied[np.argmax(probs[idx].mean(axis=0)[tied])])
        histogram = {int(c): int(votes[c]) for c in np.flatnonzero(votes)}
        predictions.append(SubjectPrediction(
            subject_id=sid,
            sample_predictions=pred_labels[idx].copy(),
            aggregated_label=winner,
            vote_histogram=histogram,
        ))
        agg_true.append(int(truth[0]))
        agg_pred.append(winner)

    conf = confusion_matrix(np.array(agg_true), np.array(agg_pred), num_classes)
    return predictions, metrics_from_confusion(conf)
