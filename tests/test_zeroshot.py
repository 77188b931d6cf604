"""Downstream classifiers, cluster matching, and subject aggregation."""

import itertools

import numpy as np
import pytest

from eegadapt.errors import DomainError, ProtocolError
from eegadapt.zeroshot import (
    ZeroShotProtocol,
    best_cluster_assignment,
    kmeans_fit,
    knn,
    linear_svm,
    run_zeroshot,
    subject_aggregate,
)
from helpers import kmeans_accuracy


def gaussian_clusters(rng, centers, per_class, spread=0.1):
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(0.0, spread, size=(per_class, len(center))) + center)
        ys.append(np.full(per_class, label))
    return np.concatenate(xs), np.concatenate(ys).astype(np.int64)


class TestLinearSvm:
    def test_separable_clusters_fully_classified(self):
        rng = np.random.default_rng(0)
        x, y = gaussian_clusters(rng, [(-5.0, 0.0), (5.0, 0.0)], 40)
        preds = linear_svm(x, y, x, seed=0)
        assert np.mean(preds == y) == 1.0

    def test_two_point_problem(self):
        fit_x = np.array([[-1.0], [1.0]])
        fit_y = np.array([0, 1])
        preds = linear_svm(fit_x, fit_y, fit_x, seed=0)
        np.testing.assert_array_equal(preds, fit_y)

    def test_tie_scores_fall_to_lower_class(self):
        # A zero eval point scores identically against symmetric classes.
        fit_x = np.array([[-1.0], [1.0]])
        fit_y = np.array([3, 7])
        preds = linear_svm(fit_x, fit_y, np.array([[0.0]]), seed=0)
        assert preds[0] == 3

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            linear_svm(np.zeros((4, 2)), np.zeros(4, dtype=int), np.zeros((1, 2)))

    def test_matches_coarse_grid_hinge_oracle(self):
        rng = np.random.default_rng(1)
        centers = [(-4.0, -4.0), (4.0, -4.0), (0.0, 5.0)]
        x, y = gaussian_clusters(rng, centers, 30, spread=0.5)
        eval_x, eval_y = gaussian_clusters(
            np.random.default_rng(2), centers, 20, spread=0.5
        )
        acc = np.mean(linear_svm(x, y, eval_x, seed=0) == eval_y)

        # Brute force: per class, grid-search (w, b) minimizing hinge + L2.
        reg = 1e-3
        grid = np.linspace(-2.0, 2.0, 9)
        scores = np.zeros((len(eval_x), 3))
        for cls in range(3):
            sign = np.where(y == cls, 1.0, -1.0)
            best = None
            for w0, w1, b in itertools.product(grid, grid, grid):
                w = np.array([w0, w1])
                margins = sign * (x @ w + b)
                objective = (0.5 * reg * np.dot(w, w)
                             + np.mean(np.maximum(0.0, 1.0 - margins)))
                if best is None or objective < best[0]:
                    best = (objective, w, b)
            scores[:, cls] = eval_x @ best[1] + best[2]
        grid_acc = np.mean(np.argmax(scores, axis=1) == eval_y)
        assert abs(acc - grid_acc) <= 0.02

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        x, y = gaussian_clusters(rng, [(-1.0, 0.0), (1.0, 0.0)], 25, spread=0.8)
        a = linear_svm(x, y, x, seed=5)
        b = linear_svm(x, y, x, seed=5)
        np.testing.assert_array_equal(a, b)


class TestKnn:
    def test_self_classification_with_k1(self):
        rng = np.random.default_rng(4)
        x, y = gaussian_clusters(rng, [(0.0,), (3.0,), (6.0,)], 10, spread=0.3)
        preds = knn(x, y, x, k=1)
        np.testing.assert_array_equal(preds, y)

    def test_global_vote_returns_majority_class(self):
        fit_x = np.vstack([np.zeros((7, 2)), np.ones((3, 2))])
        fit_y = np.array([1] * 7 + [0] * 3)
        eval_x = np.random.default_rng(5).normal(size=(6, 2)) * 10.0
        preds = knn(fit_x, fit_y, eval_x, k=10)
        assert np.all(preds == 1)

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(6)
        fit_x, fit_y = gaussian_clusters(rng, [(0.0, 0.0), (2.0, 1.0)], 15,
                                         spread=1.0)
        eval_x = rng.normal(size=(20, 2)) * 2.0
        k = 5
        preds = knn(fit_x, fit_y, eval_x, k=k)
        expected = np.empty(20, dtype=np.int64)
        for i in range(20):
            dists = [(float(np.sum((eval_x[i] - fit_x[j]) ** 2)), j)
                     for j in range(len(fit_x))]
            dists.sort()
            votes = {}
            for _, j in dists[:k]:
                votes[fit_y[j]] = votes.get(fit_y[j], 0) + 1
            top = max(votes.values())
            expected[i] = min(c for c, v in votes.items() if v == top)
        np.testing.assert_array_equal(preds, expected)

    def test_invalid_k_rejected(self):
        with pytest.raises(DomainError):
            knn(np.zeros((4, 2)), np.zeros(4, dtype=int), np.zeros((1, 2)), k=5)
        with pytest.raises(DomainError):
            knn(np.zeros((4, 2)), np.zeros(4, dtype=int), np.zeros((1, 2)), k=0)


class TestKmeans:
    def test_well_separated_gaussians(self):
        rng = np.random.default_rng(7)
        x, y = gaussian_clusters(
            rng, [(-10.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 50, spread=0.2
        )
        assert kmeans_accuracy(x, y, k=3, seed=0) >= 0.99

    def test_k1_gives_modal_class_frequency(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(10, 3))
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 2, 2])
        assert kmeans_accuracy(x, y, k=1, seed=0) == 0.6

    def test_matching_step_against_exhaustive_permutations(self):
        rng = np.random.default_rng(9)
        for k in range(2, 7):
            contingency = rng.integers(0, 20, size=(k, k))
            _, _, agreement = best_cluster_assignment(contingency)
            best = max(
                sum(contingency[i, perm[i]] for i in range(k))
                for perm in itertools.permutations(range(k))
            )
            assert agreement == best

    def test_matching_never_below_any_assignment(self):
        rng = np.random.default_rng(10)
        contingency = rng.integers(0, 15, size=(4, 4))
        _, _, agreement = best_cluster_assignment(contingency)
        for perm in itertools.permutations(range(4)):
            other = sum(contingency[i, perm[i]] for i in range(4))
            assert agreement >= other

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 4))
        c1, a1 = kmeans_fit(x, 4, seed=3)
        c2, a2 = kmeans_fit(x, 4, seed=3)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_bad_k_rejected(self):
        with pytest.raises(DomainError):
            kmeans_fit(np.zeros((3, 2)), 4)


class TestRunZeroshot:
    def make_batch(self, rng, centers=((-6.0, 0.0), (6.0, 0.0)), per_class=40,
                   labels=(4, 5), spread=0.3):
        x, y01 = gaussian_clusters(rng, list(centers), per_class, spread=spread)
        return x, np.array(labels)[y01]

    def test_separable_clusters_classified_perfectly(self):
        x, y = self.make_batch(np.random.default_rng(12))
        protocol = ZeroShotProtocol(held_out_classes=frozenset([4, 5]), seed=0)
        result = run_zeroshot(x, y, protocol)
        assert result["svm"] == 1.0
        assert result["knn"] == 1.0
        assert result["kmeans"] == 1.0

    def test_permuted_labels_fall_to_chance(self):
        rng = np.random.default_rng(13)
        x, y = self.make_batch(rng, per_class=150)
        protocol = ZeroShotProtocol(held_out_classes=frozenset([4, 5]), seed=0)
        result = run_zeroshot(x, rng.permutation(y), protocol)
        for name, acc in result.items():
            assert abs(acc - 0.5) <= 0.1, f"{name} not at chance: {acc}"

    def test_missing_class_samples_rejected(self):
        x, y = self.make_batch(np.random.default_rng(14), labels=(4, 5))
        protocol = ZeroShotProtocol(held_out_classes=frozenset([4, 9]), seed=0)
        with pytest.raises(ProtocolError):
            run_zeroshot(x, y, protocol)

    def test_tiny_class_rejected(self):
        emb = np.vstack([np.zeros((2, 2)), np.ones((8, 2))])
        labels = np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 1])
        protocol = ZeroShotProtocol(held_out_classes=frozenset([0, 1]),
                                    fit_fraction=0.5, seed=0)
        with pytest.raises(ProtocolError):
            run_zeroshot(emb, labels, protocol)

    def test_protocol_validation(self):
        with pytest.raises(ProtocolError):
            ZeroShotProtocol(held_out_classes=frozenset([1]), seed=0)
        with pytest.raises(ProtocolError):
            ZeroShotProtocol(held_out_classes=frozenset([1, 2]), fit_fraction=1.0)


class TestSubjectAggregate:
    def test_simple_majority(self):
        probs = np.full((3, 2), 0.5)
        preds, report = subject_aggregate(
            ["s1", "s1", "s1"], np.array([0, 0, 1]), probs, np.array([0, 0, 0])
        )
        assert preds[0].aggregated_label == 0
        assert preds[0].vote_histogram == {0: 2, 1: 1}
        assert report.accuracy == 1.0

    def test_tie_broken_by_mean_probability(self):
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])
        preds, _ = subject_aggregate(
            ["s1", "s1"], np.array([0, 1]), probs, np.array([0, 0])
        )
        # Mean probs: class 0 -> 0.65, class 1 -> 0.35.
        assert preds[0].aggregated_label == 0

    def test_binomial_cohort_hits_full_subject_accuracy(self):
        # 10 subjects, 10 samples each, exactly 8 predicted correctly.
        rng = np.random.default_rng(15)
        subjects, preds, probs, truth = [], [], [], []
        for s in range(10):
            true_label = s % 3
            flips = rng.permutation(10)
            for i in range(10):
                subjects.append(f"s{s:02d}")
                truth.append(true_label)
                wrong = (true_label + 1) % 3
                pred = true_label if flips[i] < 8 else wrong
                preds.append(pred)
                p = np.full(3, 0.1)
                p[pred] = 0.8
                probs.append(p)
        sample_acc = np.mean(np.array(preds) == np.array(truth))
        assert sample_acc == 0.8
        subject_preds, report = subject_aggregate(
            subjects, np.array(preds), np.array(probs), np.array(truth)
        )
        assert len(subject_preds) == 10
        assert report.accuracy == 1.0
        assert report.accuracy >= sample_acc

    def test_subject_with_mixed_truth_rejected(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(DomainError):
            subject_aggregate(["s1", "s1"], np.array([0, 0]), probs,
                              np.array([0, 1]))

    def test_histogram_totals_match_sample_counts(self):
        rng = np.random.default_rng(16)
        n = 40
        subjects = [f"s{i % 4}" for i in range(n)]
        preds = rng.integers(0, 3, size=n)
        probs = np.full((n, 3), 1.0 / 3.0)
        truth = np.array([int(s[1]) % 3 for s in subjects])
        subject_preds, _ = subject_aggregate(subjects, preds, probs, truth)
        for sp in subject_preds:
            assert sum(sp.vote_histogram.values()) == len(sp.sample_predictions)
            assert sp.aggregated_label in sp.vote_histogram
