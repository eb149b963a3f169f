"""Unit tests for per-class reconstruction error and the trend tracker."""

import copy

import numpy as np
import pytest

from repro.core.detector import RBMIM, RBMIMConfig
from repro.core.rbm import RBMConfig, SkewInsensitiveRBM
from repro.core.trend import TrendTracker
from test_rbm import instance_errors


def trained_rbm(X, y, n_classes=3, epochs=100):
    rbm = SkewInsensitiveRBM(
        RBMConfig(
            n_visible=X.shape[1],
            n_hidden=8,
            n_classes=n_classes,
            learning_rate=0.2,
            seed=1,
        )
    )
    for _ in range(epochs):
        rbm.partial_fit(X, y)
    return rbm


class TestReconstructionError:
    def test_errors_non_negative_and_finite(self, labelled_batch):
        X, y = labelled_batch
        rbm = trained_rbm(X, y, epochs=10)
        errors = instance_errors(rbm, X, y)
        assert errors.shape == (X.shape[0],)
        assert np.all(errors >= 0.0)
        assert np.all(np.isfinite(errors))

    def test_training_reduces_reconstruction_error(self, labelled_batch):
        X, y = labelled_batch
        fresh = trained_rbm(X, y, epochs=1)
        trained = trained_rbm(X, y, epochs=150)
        assert (
            instance_errors(trained, X, y).mean()
            < instance_errors(fresh, X, y).mean()
        )

    def test_unseen_distribution_has_higher_error(self, labelled_batch, rng):
        X, y = labelled_batch
        rbm = trained_rbm(X, y, epochs=150)
        familiar = instance_errors(rbm, X, y).mean()
        shifted = np.clip(1.0 - X, 0.0, 1.0)  # mirror of the training data
        novel = instance_errors(rbm, shifted, y).mean()
        assert novel > familiar


class TestPerClassError:
    """Eq. 27 as RBM-IM computes it: with ``min_class_samples=1`` each class
    present in a mini-batch gets the mean error of its rows, measured with
    the RBM and scaler as they were before the batch."""

    @staticmethod
    def _warm_detector(X, y):
        detector = RBMIM(
            X.shape[1],
            3,
            RBMIMConfig(batch_size=40, min_class_samples=1, seed=3),
        )
        detector.warm_start(X, y)
        return detector

    def test_per_class_average_matches_manual(self, labelled_batch):
        X, y = labelled_batch
        detector = self._warm_detector(X, y)
        batch_X, batch_y = X[:40], y[:40]
        scaler = copy.deepcopy(detector._scaler)
        rbm = copy.deepcopy(detector.rbm)
        errors = instance_errors(rbm, scaler.partial_fit_transform(batch_X), batch_y)
        detector.step_batch(batch_X, batch_y, batch_y)
        per_class = detector.last_per_class_errors
        for label in range(3):
            mask = batch_y == label
            assert mask.any()
            assert per_class[label] == pytest.approx(errors[mask].mean(), rel=1e-12)

    def test_absent_class_reported_as_nan(self, labelled_batch):
        X, y = labelled_batch
        detector = self._warm_detector(X, y)
        mask = y != 2
        detector.step_batch(X[mask][:40], y[mask][:40], y[mask][:40])
        per_class = detector.last_per_class_errors
        assert np.isnan(per_class[2])
        assert np.isfinite(per_class[:2]).all()


class TestTrendTracker:
    def test_positive_slope_for_increasing_series(self):
        tracker = TrendTracker()
        slope = 0.0
        for value in np.linspace(0.0, 10.0, 50):
            slope = tracker.update(float(value))
        assert slope > 0.0

    def test_negative_slope_for_decreasing_series(self):
        tracker = TrendTracker()
        slope = 0.0
        for value in np.linspace(10.0, 0.0, 50):
            slope = tracker.update(float(value))
        assert slope < 0.0

    def test_near_zero_slope_for_constant_series(self):
        tracker = TrendTracker()
        slope = 0.0
        for _ in range(50):
            slope = tracker.update(5.0)
        assert slope == pytest.approx(0.0, abs=1e-9)

    def test_known_slope_recovered(self):
        tracker = TrendTracker(max_window=20, min_window=20)
        slope = 0.0
        for t in range(20):
            slope = tracker.update(3.0 * t + 1.0)
        assert slope == pytest.approx(3.0, rel=1e-6)

    def test_window_size_bounded(self):
        """The slope reads at most ``max_window`` values: after a long flat
        stretch, a ramp as long as the window gives its exact slope."""
        tracker = TrendTracker(max_window=20)
        for _ in range(100):
            tracker.update(0.0)
        for t in range(20):
            slope = tracker.update(5.0 + 0.5 * t)
        assert slope == pytest.approx(0.5, rel=1e-9)
        assert len(tracker.value_history) <= 20

    def test_trend_history_recorded(self):
        tracker = TrendTracker()
        for value in range(10):
            tracker.update(float(value))
        assert len(tracker.trend_history) == 10
        assert tracker.n_updates == 10

    def test_reset_clears_state(self):
        tracker = TrendTracker()
        for value in range(10):
            tracker.update(float(value))
        tracker.reset()
        assert tracker.n_updates == 0
        assert tracker.trend_history == []

    def test_slope_reacts_to_level_shift(self):
        tracker = TrendTracker(max_window=40)
        for _ in range(40):
            tracker.update(1.0)
        stable_slope = tracker.trend_history[-1]
        for _ in range(10):
            tracker.update(5.0)
        shifted_slope = tracker.trend_history[-1]
        assert shifted_slope > stable_slope

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TrendTracker(min_window=1)
        with pytest.raises(ValueError):
            TrendTracker(max_window=2, min_window=10)
