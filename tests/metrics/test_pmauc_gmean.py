"""Unit tests for prequential multi-class AUC and G-mean."""

import numpy as np
import pytest

from repro.metrics.confusion import StreamingConfusionMatrix
from repro.metrics.pmauc import PrequentialMultiClassAUC, auc_from_scores


class TestAUCFromScores:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positives = np.array([True, True, False, False])
        assert auc_from_scores(scores, positives) == pytest.approx(1.0)

    def test_inverted_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        positives = np.array([True, True, False, False])
        assert auc_from_scores(scores, positives) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(4000)
        positives = rng.random(4000) < 0.3
        assert auc_from_scores(scores, positives) == pytest.approx(0.5, abs=0.03)

    def test_ties_get_half_credit(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        positives = np.array([True, True, False, False])
        assert auc_from_scores(scores, positives) == pytest.approx(0.5)

    def test_single_class_returns_nan(self):
        assert np.isnan(auc_from_scores(np.array([0.1, 0.2]), np.array([True, True])))

    def test_matches_sklearn_style_pair_counting(self):
        rng = np.random.default_rng(1)
        scores = rng.random(200)
        positives = rng.random(200) < 0.4
        # Brute-force pair counting definition of AUC.
        pos = scores[positives]
        neg = scores[~positives]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        expected = wins / (len(pos) * len(neg))
        assert auc_from_scores(scores, positives) == pytest.approx(expected)


class TestPrequentialMultiClassAUC:
    def test_empty_window_returns_half(self):
        metric = PrequentialMultiClassAUC(3)
        assert metric.value() == 0.5

    def test_perfect_classifier_approaches_one(self):
        metric = PrequentialMultiClassAUC(3, window_size=200)
        rng = np.random.default_rng(0)
        for _ in range(300):
            label = int(rng.integers(3))
            scores = np.full(3, 0.1)
            scores[label] = 0.8
            metric.update(scores, label)
        assert metric.value() > 0.95

    def test_random_classifier_near_half(self):
        metric = PrequentialMultiClassAUC(4, window_size=500)
        rng = np.random.default_rng(1)
        for _ in range(800):
            scores = rng.random(4)
            scores /= scores.sum()
            metric.update(scores, int(rng.integers(4)))
        assert metric.value() == pytest.approx(0.5, abs=0.06)

    def test_window_forgets_old_behaviour(self):
        metric = PrequentialMultiClassAUC(2, window_size=100)
        rng = np.random.default_rng(2)
        # First: anti-correlated scores (bad). Then: perfect scores.
        for _ in range(100):
            label = int(rng.integers(2))
            scores = np.array([0.9, 0.1]) if label == 1 else np.array([0.1, 0.9])
            metric.update(scores, label)
        for _ in range(100):
            label = int(rng.integers(2))
            scores = np.array([0.1, 0.9]) if label == 1 else np.array([0.9, 0.1])
            metric.update(scores, label)
        assert metric.value() > 0.9

    def test_skew_insensitivity_versus_accuracy(self):
        """A majority-class scorer gets high accuracy but pmAUC stays at 0.5."""
        metric = PrequentialMultiClassAUC(2, window_size=1000)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            label = 0 if rng.random() < 0.95 else 1
            metric.update(np.array([1.0, 0.0]), label)
        assert metric.value() == pytest.approx(0.5, abs=0.05)

    def test_input_validation(self):
        metric = PrequentialMultiClassAUC(3)
        with pytest.raises(ValueError):
            metric.update(np.array([0.5, 0.5]), 0)
        with pytest.raises(ValueError):
            metric.update(np.array([0.3, 0.3, 0.4]), 3)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PrequentialMultiClassAUC(1)
        with pytest.raises(ValueError):
            PrequentialMultiClassAUC(3, window_size=5)

    def test_reset(self):
        metric = PrequentialMultiClassAUC(2)
        metric.update(np.array([0.9, 0.1]), 0)
        metric.reset()
        assert metric.value() == 0.5


class TestPrequentialGMean:
    """pmGM: the G-mean of the evaluator's windowed confusion matrix."""

    def test_perfect_predictions_give_one(self):
        metric = StreamingConfusionMatrix(3, window_size=100)
        for label in [0, 1, 2] * 30:
            metric.update(label, label)
        assert metric.geometric_mean() == pytest.approx(1.0)

    def test_missing_minority_class_gives_zero(self):
        metric = StreamingConfusionMatrix(2, window_size=200)
        rng = np.random.default_rng(0)
        for _ in range(200):
            label = 0 if rng.random() < 0.9 else 1
            metric.update(label, 0)  # always predict majority
        assert metric.geometric_mean() == 0.0

    def test_value_matches_manual_gmean(self):
        metric = StreamingConfusionMatrix(2, window_size=100)
        # class 0 recall 1.0 (10/10), class 1 recall 0.5 (5/10)
        for _ in range(10):
            metric.update(0, 0)
        for i in range(10):
            metric.update(1, 1 if i < 5 else 0)
        assert metric.geometric_mean() == pytest.approx(np.sqrt(1.0 * 0.5))

    def test_recall_per_class_exposed(self):
        metric = StreamingConfusionMatrix(2, window_size=1000)
        metric.update(0, 0)
        metric.update(1, 0)
        recall = metric.recall_per_class()
        assert recall[0] == pytest.approx(1.0)
        assert recall[1] == pytest.approx(0.0)

    def test_reset(self):
        metric = StreamingConfusionMatrix(2, window_size=1000)
        metric.update(0, 0)
        metric.reset()
        assert metric.geometric_mean() == 0.0
