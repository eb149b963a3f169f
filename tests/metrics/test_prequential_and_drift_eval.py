"""Unit tests for the prequential evaluator and drift-detection scoring."""

import numpy as np
import pytest

from repro.metrics.drift_eval import evaluate_detections
from repro.metrics.prequential import PrequentialEvaluator


class TestPrequentialEvaluator:
    def _feed_perfect(self, evaluator, n, n_classes=3, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            label = int(rng.integers(n_classes))
            scores = np.full(n_classes, 0.05)
            scores[label] = 1.0 - 0.05 * (n_classes - 1)
            evaluator.update(scores, label, label)

    def test_perfect_predictions_score_high(self):
        evaluator = PrequentialEvaluator(n_classes=3, window_size=200)
        self._feed_perfect(evaluator, 500)
        assert evaluator.pmauc() > 0.95
        assert evaluator.pmgm() > 0.95
        assert evaluator.accuracy() == pytest.approx(1.0)
        assert evaluator.kappa() == pytest.approx(1.0)

    def test_snapshots_recorded_at_interval(self):
        evaluator = PrequentialEvaluator(
            n_classes=2, window_size=100, snapshot_every=50
        )
        self._feed_perfect(evaluator, 230, n_classes=2)
        assert len(evaluator.snapshots) == 4
        assert [snap.position for snap in evaluator.snapshots] == [50, 100, 150, 200]

    def test_mean_metrics_average_snapshots(self):
        evaluator = PrequentialEvaluator(
            n_classes=2, window_size=100, snapshot_every=100
        )
        self._feed_perfect(evaluator, 400, n_classes=2)
        values = [snap.pmauc for snap in evaluator.snapshots]
        assert evaluator.mean_pmauc() == pytest.approx(np.mean(values))

    def test_mean_metrics_fall_back_to_current_value(self):
        evaluator = PrequentialEvaluator(n_classes=2, snapshot_every=10_000)
        self._feed_perfect(evaluator, 50, n_classes=2)
        assert evaluator.mean_pmauc() == pytest.approx(evaluator.pmauc())

    def test_reset(self):
        evaluator = PrequentialEvaluator(n_classes=2)
        self._feed_perfect(evaluator, 100, n_classes=2)
        evaluator.reset()
        assert evaluator.n_seen == 0
        assert evaluator.snapshots == []

    @pytest.mark.parametrize("snapshot_every", [0, -3])
    def test_snapshot_every_below_one_is_refused(self, snapshot_every):
        with pytest.raises(ValueError, match="snapshot_every must be >= 1"):
            PrequentialEvaluator(n_classes=2, snapshot_every=snapshot_every)


class TestEvaluateDetections:
    def test_perfect_detection(self):
        report = evaluate_detections([1000, 2000], [1010, 2050], tolerance=500)
        assert report.n_detected == 2
        assert report.detection_recall == 1.0
        assert report.n_false_alarms == 0
        assert report.mean_delay == pytest.approx(30.0)

    def test_missed_drift(self):
        report = evaluate_detections([1000, 2000], [1010], tolerance=500)
        assert report.n_detected == 1
        assert report.detection_recall == 0.5

    def test_false_alarms_counted(self):
        report = evaluate_detections([1000], [200, 500, 1020], tolerance=300)
        assert report.n_false_alarms == 2
        assert report.n_detected == 1

    def test_alarm_before_drift_does_not_count(self):
        report = evaluate_detections([1000], [950], tolerance=500)
        assert report.n_detected == 0
        assert report.n_false_alarms == 1

    def test_no_true_drifts_recall_is_one(self):
        report = evaluate_detections([], [100, 200], tolerance=100)
        assert report.detection_recall == 1.0
        assert report.n_false_alarms == 2

    def test_no_detections_mean_delay_nan(self):
        report = evaluate_detections([100], [], tolerance=100)
        assert np.isnan(report.mean_delay)
        assert report.detection_recall == 0.0

    def test_multiple_alarms_in_window_count_once(self):
        report = evaluate_detections([1000], [1010, 1020, 1100], tolerance=500)
        assert report.n_detected == 1
        assert report.n_detections == 3
        assert report.n_false_alarms == 0
        assert report.mean_delay == pytest.approx(10.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            evaluate_detections([10], [10], tolerance=-1)
