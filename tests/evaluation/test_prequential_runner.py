"""Unit and integration tests for the prequential runner and the default classifier."""

from collections import deque

import numpy as np
import pytest

from repro.classifiers import GaussianNaiveBayes, OnlinePerceptron
from repro.core.detector import RBMIM, RBMIMConfig
from repro.detectors import DDM
from repro.detectors.base import ErrorRateDetector
from repro.evaluation.experiment import default_classifier_factory
from repro.evaluation.prequential import PrequentialRunner
from repro.streams.generators import RandomRBFGenerator
from repro.streams.scenarios import make_artificial_stream


def perceptron_factory(n_features, n_classes):
    return OnlinePerceptron(n_features, n_classes, seed=0)


def nb_factory(n_features, n_classes):
    return GaussianNaiveBayes(n_features, n_classes)


class _NeverDrift(ErrorRateDetector):
    def add_element(self, value: float) -> None:  # never signals
        return


class TestPrequentialRunner:
    def test_run_on_plain_stream(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=6, seed=0)
        runner = PrequentialRunner(perceptron_factory, pretrain_size=100)
        result = runner.run(stream, DDM(), n_instances=1500)
        assert result.n_instances == 1500
        assert 0.0 <= result.pmauc <= 1.0
        assert 0.0 <= result.pmgm <= 1.0
        assert result.drift_report is None
        assert result.detector_name == "DDM"

    def test_run_on_scenario_produces_drift_report(self):
        scenario = make_artificial_stream(
            "rbf", 5, n_instances=2000, max_imbalance_ratio=10, seed=1
        )
        runner = PrequentialRunner(nb_factory, pretrain_size=100)
        result = runner.run(scenario, DDM(), n_instances=2000)
        assert result.drift_report is not None
        assert result.drift_report.n_true_drifts == 3
        assert result.stream_name == "Rbf5"

    def test_detector_none_baseline(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=6, seed=2)
        runner = PrequentialRunner(perceptron_factory, pretrain_size=50)
        result = runner.run(stream, None, n_instances=800)
        assert result.detections == []
        assert result.detector_name == "none"
        assert result.detector_time == 0.0

    def test_learned_classifier_beats_chance(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=6, seed=3)
        runner = PrequentialRunner(nb_factory, pretrain_size=100)
        result = runner.run(stream, None, n_instances=2000)
        assert result.pmauc > 0.7

    def test_detections_trigger_classifier_rebuild(self):
        scenario = make_artificial_stream(
            "rbf", 5, n_instances=2000, max_imbalance_ratio=10, seed=4
        )
        runner = PrequentialRunner(nb_factory, pretrain_size=100, rebuild_buffer=50)
        drifting_result = runner.run(scenario, DDM(), n_instances=2000)
        # The run completed and recorded classifier work after resets.
        assert drifting_result.classifier_time > 0.0

    def test_never_drift_detector_records_no_detections(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=6, seed=5)
        runner = PrequentialRunner(perceptron_factory, pretrain_size=50)
        result = runner.run(stream, _NeverDrift(), n_instances=600)
        assert result.detections == []
        assert result.detected_classes == []

    def test_rbmim_receives_warm_start(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=6, seed=6)
        detector = RBMIM(6, 3, RBMIMConfig(batch_size=25, seed=0))
        runner = PrequentialRunner(perceptron_factory, pretrain_size=100)
        runner.run(stream, detector, n_instances=800)
        assert detector.rbm.n_batches_trained > 0

    def test_snapshots_collected(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=6, seed=7)
        runner = PrequentialRunner(
            perceptron_factory, pretrain_size=100, snapshot_every=200
        )
        result = runner.run(stream, None, n_instances=1200)
        assert len(result.snapshots) >= 4

    def test_finite_stream_ends_early(self, tiny_list_stream):
        # n_instances counts the rows processed, not the rows requested.
        for mode in (
            {},
            {"chunk_size": 16},
            {"chunk_size": 16, "batch_mode": True},
        ):
            tiny_list_stream.restart()
            runner = PrequentialRunner(perceptron_factory, pretrain_size=10, **mode)
            result = runner.run(tiny_list_stream, DDM(), n_instances=10_000)
            assert result.n_instances == len(tiny_list_stream), mode
            assert result.snapshots == [] or result.snapshots[-1].position <= 60

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PrequentialRunner(perceptron_factory, pretrain_size=-1)

    def test_batch_mode_requires_chunk_size(self):
        # Without a chunk size, batch_mode used to run instance mode silently.
        with pytest.raises(ValueError, match="batch_mode requires chunk_size"):
            PrequentialRunner(perceptron_factory, batch_mode=True)

    @pytest.mark.parametrize("snapshot_every", [0, -3])
    def test_snapshot_every_below_one_is_refused(self, snapshot_every):
        # Construction only: 0 used to divide by zero inside run(), and a
        # negative spacing made a chunked run() loop forever.
        with pytest.raises(ValueError, match="snapshot_every must be >= 1"):
            PrequentialRunner(
                perceptron_factory, snapshot_every=snapshot_every, chunk_size=64
            )

    @pytest.mark.parametrize(
        "factory", [nb_factory, default_classifier_factory], ids=["gnb", "tree"]
    )
    def test_rebuild_replays_like_scalar_partial_fit(self, factory):
        # The rebuild replays its buffer through predict_fit_interleaved;
        # the state must be the one a partial_fit per row leaves.  400 rows
        # take the default tree through split attempts at 200 and 400.
        features, labels = RandomRBFGenerator(
            n_classes=5, n_features=8, seed=11
        ).generate_batch(450)
        replay = deque(zip(features, labels.tolist()), maxlen=400)
        runner = PrequentialRunner(factory, chunk_size=64)
        rebuilt = runner._rebuild_classifier(8, 5, replay)
        expected = factory(8, 5)
        for x, y in replay:
            expected.partial_fit(x, y)
        assert rebuilt.snapshot() == expected.snapshot()


class TestExperimentOrchestration:
    def test_default_classifier_factory(self):
        classifier = default_classifier_factory(8, 5)
        assert classifier.n_features == 8
        assert classifier.n_classes == 5
