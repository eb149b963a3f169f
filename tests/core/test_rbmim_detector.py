"""Unit and behavioural tests for the RBM-IM drift detector."""

import numpy as np
import pytest

from repro.core.detector import RBMIM, RBMIMConfig
from repro.streams.generators import RandomRBFGenerator
from repro.streams.schedule import Schedule, ScheduledStream, Segment


def feed_stream(detector, stream, n):
    """Push ``n`` instances through the detector, returning alarm positions."""
    alarms = []
    for index in range(n):
        instance = stream.next_instance()
        if detector.step(instance.x, instance.y, instance.y):
            alarms.append(index)
    return alarms


def make_detector(n_features, n_classes, **overrides):
    defaults = dict(batch_size=25, seed=3, warm_start_epochs=5)
    defaults.update(overrides)
    return RBMIM(n_features, n_classes, RBMIMConfig(**defaults))


class TestRBMIMConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RBMIMConfig(batch_size=1)
        with pytest.raises(ValueError):
            RBMIMConfig(hidden_ratio=0.0)
        with pytest.raises(ValueError):
            RBMIMConfig(granger_segment=2)
        with pytest.raises(ValueError):
            RBMIMConfig(min_class_history=1)
        with pytest.raises(ValueError):
            RBMIMConfig(sensitivity=0.0)

    @pytest.mark.parametrize(
        "settings",
        [
            # A class keeps at most max_trend_window trends, so the test
            # needing 2 * granger_segment of them would never run.
            pytest.param(dict(granger_segment=101), id="segment-101"),
            pytest.param(
                dict(granger_segment=60, max_trend_window=100),
                id="segment-60-window-100",
            ),
            # The test could never veto a drift, or would veto almost all.
            pytest.param(dict(granger_alpha=0.0), id="alpha-0"),
            pytest.param(dict(granger_alpha=-0.05), id="alpha-negative"),
            pytest.param(dict(granger_alpha=1.0), id="alpha-1"),
            pytest.param(dict(granger_alpha=1.5), id="alpha-above-1"),
        ],
    )
    def test_refuses_granger_settings_that_switch_the_test_off(self, settings):
        with pytest.raises(ValueError):
            RBMIMConfig(**settings)

    def test_accepts_the_longest_segment_the_trend_window_holds(self):
        RBMIMConfig(granger_segment=50, max_trend_window=100)

    def test_defaults_follow_paper_grid(self):
        config = RBMIMConfig()
        assert 25 <= config.batch_size <= 100
        assert 0.25 <= config.hidden_ratio <= 1.0
        assert 0.01 <= config.learning_rate <= 0.07
        assert 1 <= config.cd_steps <= 4


class TestRBMIMMechanics:
    def test_buffering_until_batch_complete(self):
        detector = make_detector(6, 3, batch_size=10)
        x = np.random.default_rng(0).random(6)
        for _ in range(9):
            detector.step(x, 0, 0)
        assert detector.batches_processed == 0
        detector.step(x, 1, 1)
        assert detector.batches_processed == 1

    def test_first_batch_warm_starts_rbm(self):
        detector = make_detector(6, 3, batch_size=10)
        rng = np.random.default_rng(1)
        for _ in range(10):
            detector.step(rng.random(6), int(rng.integers(3)), 0)
        assert detector.rbm.n_batches_trained >= 1

    def test_explicit_warm_start(self, labelled_batch):
        X, y = labelled_batch
        detector = make_detector(X.shape[1], 3)
        detector.warm_start(X, y)
        assert detector.rbm.n_batches_trained == 5

    def test_input_validation(self):
        detector = make_detector(4, 3)
        with pytest.raises(ValueError):
            detector.add_instance(np.zeros(3), 0)
        with pytest.raises(ValueError):
            detector.add_instance(np.zeros(4), 5)

    def test_reset_clears_monitors(self, labelled_batch):
        X, y = labelled_batch
        detector = make_detector(X.shape[1], 3, batch_size=10)
        for row, label in zip(X, y):
            detector.step(row, int(label), int(label))
        detector.reset()
        assert detector.batches_processed == 0
        assert np.all(np.isnan(detector.last_per_class_errors))

    def test_per_class_errors_exposed(self, labelled_batch):
        X, y = labelled_batch
        detector = make_detector(X.shape[1], 3, batch_size=20)
        detector.warm_start(X, y)
        for row, label in zip(X, y):
            detector.step(row, int(label), int(label))
        errors = detector.last_per_class_errors
        assert errors.shape == (3,)
        assert np.isfinite(errors[np.unique(y)]).all()

    def test_class_trend_accessor(self, labelled_batch):
        X, y = labelled_batch
        detector = make_detector(X.shape[1], 3, batch_size=20)
        detector.warm_start(X, y)
        for row, label in zip(np.tile(X, (3, 1)), np.tile(y, 3)):
            detector.step(row, int(label), int(label))
        assert len(detector.class_trend(int(y[0]))) > 0


class TestRBMIMDriftDetection:
    def _stationary_stream(self, seed=0):
        return RandomRBFGenerator(
            n_classes=4, n_features=8, n_centroids=12, concept=0, seed=seed
        )

    def test_quiet_on_stationary_stream(self):
        stream = self._stationary_stream()
        detector = make_detector(8, 4, batch_size=25)
        alarms = feed_stream(detector, stream, 4000)
        assert len(alarms) <= 3

    def test_detects_global_sudden_drift(self):
        stream = self._stationary_stream(seed=1)
        detector = make_detector(8, 4, batch_size=25)
        feed_stream(detector, stream, 3000)
        stream.set_concept(7)  # sudden real drift on every class
        alarms = feed_stream(detector, stream, 1500)
        assert alarms, "RBM-IM missed a global sudden drift"
        assert alarms[0] < 1000

    def test_detects_local_drift_and_blames_class(self):
        def factory(concept):
            return RandomRBFGenerator(
                n_classes=4, n_features=8, n_centroids=12, concept=concept, seed=5
            )

        stream = ScheduledStream(
            factory,
            Schedule.of(
                Segment(length=3000, concept=0),
                Segment(length=3000, concept=6, drifted_classes=(2,)),
            ),
            seed=9,
        )
        detector = make_detector(8, 4, batch_size=25)
        blamed: set[int] = set()
        alarms = []
        for index in range(6000):
            instance = stream.next_instance()
            if detector.step(instance.x, instance.y, instance.y):
                alarms.append(index)
                blamed |= detector.drifted_classes or set()
        post = [a for a in alarms if a >= 3000]
        assert post, "RBM-IM missed the local drift"
        assert 2 in blamed

    def test_ablation_without_granger_still_detects(self):
        stream = self._stationary_stream(seed=2)
        detector = make_detector(8, 4, batch_size=25, use_granger=False)
        feed_stream(detector, stream, 3000)
        stream.set_concept(3)
        alarms = feed_stream(detector, stream, 1500)
        assert alarms

    def test_skew_insensitive_loss_can_be_disabled(self):
        detector = make_detector(8, 4, balance_beta=0.0)
        assert detector.rbm.config.balance_beta == 0.0

    def test_detector_adapts_after_drift(self):
        """After detecting a drift the RBM keeps training and goes quiet again."""
        stream = self._stationary_stream(seed=4)
        detector = make_detector(8, 4, batch_size=25)
        feed_stream(detector, stream, 3000)
        stream.set_concept(9)
        feed_stream(detector, stream, 2000)  # detection + adaptation period
        late_alarms = feed_stream(detector, stream, 2500)
        assert len(late_alarms) <= 2
