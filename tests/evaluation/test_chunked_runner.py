"""Chunked prequential runner: parity with instance mode, and batch mode.

The chunked exact mode must reproduce instance-mode results *exactly*
(detections, drift-reset positions, pmAUC/pmGM/accuracy/kappa and every
snapshot) because the batched stream fetch is bit-identical and all model
operations happen in the same order.  Batch mode trades within-chunk test
ordering for throughput; for detectors that ignore the prediction stream
(RBM-IM consumes raw instances) the detections are still identical.
"""

import numpy as np
import pytest

from repro.classifiers import CostSensitivePerceptronTree, GaussianNaiveBayes
from repro.core.detector import RBMIM, RBMIMConfig
from repro.detectors import DDM
from repro.evaluation.experiment import default_classifier_factory
from repro.evaluation.prequential import PrequentialRunner
from repro.protocol.registry import DETECTOR_NAMES, build_detector
from repro.streams.base import ListStream
from repro.streams.generators import RandomRBFGenerator
from repro.streams.imbalance import StaticImbalance
from repro.streams.scenarios import (
    ScenarioStream,
    build_scenario_stream,
    make_artificial_stream,
)
from repro.streams.schedule import Schedule, ScheduledStream, Segment

N_INSTANCES = 4_000
REGISTRY_DETECTORS = [name for name in DETECTOR_NAMES if name != "none"]


def nb_factory(n_features, n_classes):
    return GaussianNaiveBayes(n_features, n_classes)


def _drifting_scenario() -> ScenarioStream:
    """Small imbalanced stream with a sudden drift on which RBM-IM fires.

    Every class drifts: on a class-3-only drift RBM-IM fired in 1 of 10
    engine seeds at this length, too rarely to exercise drift resets.
    """

    def factory(concept: int):
        return RandomRBFGenerator(
            n_classes=4, n_features=8, n_centroids=12, concept=concept, seed=3
        )

    stream = ScheduledStream(
        factory,
        Schedule.of(
            Segment(length=2_000, concept=0),
            Segment(length=2_000, concept=6),
        ),
        imbalance=StaticImbalance(4, 10.0),
        seed=9,
    )
    return ScenarioStream(
        stream=stream,
        drift_points=stream.drift_points,
        drifted_classes=stream.drifted_classes,
        name="chunked-parity-scenario",
        n_instances=N_INSTANCES,
    )


def _rbmim(scenario: ScenarioStream) -> RBMIM:
    return RBMIM(
        scenario.n_features,
        scenario.n_classes,
        RBMIMConfig(batch_size=25, seed=7),
    )


def _instance_mode_run(factory):
    scenario = _drifting_scenario()
    runner = PrequentialRunner(factory, pretrain_size=200)
    return runner.run(scenario, _rbmim(scenario), n_instances=N_INSTANCES)


@pytest.fixture(scope="module")
def instance_mode_result():
    return _instance_mode_run(nb_factory)


@pytest.fixture(scope="module")
def tree_instance_mode_result():
    return _instance_mode_run(default_classifier_factory)


#: Classifier under test -> (factory, fixture holding its instance-mode run).
#: GNB and the paper's perceptron tree both score chunks with a native kernel.
PARITY_CLASSIFIERS = {
    "gnb": (nb_factory, "instance_mode_result"),
    "tree": (default_classifier_factory, "tree_instance_mode_result"),
}


class TestChunkedExactMode:
    @pytest.mark.parametrize("chunk_size", [1, 64, 500, 10_000])
    @pytest.mark.parametrize("classifier", sorted(PARITY_CLASSIFIERS))
    def test_identical_to_instance_mode(self, request, classifier, chunk_size):
        factory, reference_fixture = PARITY_CLASSIFIERS[classifier]
        scenario = _drifting_scenario()
        runner = PrequentialRunner(
            factory, pretrain_size=200, chunk_size=chunk_size
        )
        result = runner.run(scenario, _rbmim(scenario), n_instances=N_INSTANCES)
        reference = request.getfixturevalue(reference_fixture)
        assert result.detections == reference.detections
        assert result.detected_classes == reference.detected_classes
        assert result.pmauc == reference.pmauc
        assert result.pmgm == reference.pmgm
        assert result.accuracy == reference.accuracy
        assert result.kappa == reference.kappa
        assert [
            (snap.position, snap.pmauc, snap.pmgm) for snap in result.snapshots
        ] == [
            (snap.position, snap.pmauc, snap.pmgm)
            for snap in reference.snapshots
        ]

    @pytest.mark.parametrize("classifier", sorted(PARITY_CLASSIFIERS))
    def test_detections_fired(self, request, classifier):
        # The parity assertions above are only meaningful if drifts and
        # drift-triggered classifier resets actually happened.
        _, reference_fixture = PARITY_CLASSIFIERS[classifier]
        assert request.getfixturevalue(reference_fixture).detections

    def test_tree_scores_through_native_kernel(self, monkeypatch):
        # The base-class row loop would score every post-pretrain row with
        # predict_proba; the tree's kernel never calls it.
        calls = []
        scalar_predict_proba = CostSensitivePerceptronTree.predict_proba

        def counting_predict_proba(self, x):
            calls.append(x)
            return scalar_predict_proba(self, x)

        monkeypatch.setattr(
            CostSensitivePerceptronTree, "predict_proba", counting_predict_proba
        )
        stream = RandomRBFGenerator(n_classes=3, n_features=4, seed=0)
        runner = PrequentialRunner(
            default_classifier_factory, pretrain_size=100, chunk_size=64
        )
        result = runner.run(stream, DDM(), n_instances=1_000)
        assert result.n_instances == 1_000
        assert calls == []

    @pytest.mark.parametrize("name", REGISTRY_DETECTORS)
    def test_registry_detector_parity(self, name):
        """Every registry detector drifts mid-chunk on this stream, so the
        exact step's rollback (restore, then re-step up to the drift row)
        runs for each, whichever segment hook steps it."""
        n_instances, chunk = 3_000, 97

        def run(**options):
            scenario = build_scenario_stream(
                3, family="rbf", n_classes=4, n_instances=n_instances,
                n_drifts=2, max_imbalance_ratio=20.0, seed=1,
            )
            runner = PrequentialRunner(nb_factory, pretrain_size=100, **options)
            detector = build_detector(name, scenario.n_features, scenario.n_classes)
            return runner.run(scenario, detector, n_instances=n_instances)

        reference = run()
        chunked = run(chunk_size=chunk)
        assert any(
            (position + 1) % chunk and position != n_instances - 1
            for position in reference.detections
        ), f"{name}: no drift off a chunk's last row, so no rollback ran"
        assert chunked.detections == reference.detections
        assert chunked.detected_classes == reference.detected_classes
        assert chunked.pmauc == reference.pmauc
        assert chunked.pmgm == reference.pmgm
        assert chunked.accuracy == reference.accuracy
        assert chunked.kappa == reference.kappa

    def test_refuses_detector_outside_snapshot_contract(self):
        class DuckDetector:
            """Detector-shaped, but rollback has no snapshot() to call."""

            drifted_classes = None

            def warm_start(self, features, labels):
                pass

            def step_batch(self, features, labels, predictions):
                return np.zeros(labels.shape[0], dtype=bool)

        stream = RandomRBFGenerator(n_classes=3, n_features=4, seed=0)
        runner = PrequentialRunner(nb_factory, pretrain_size=50, chunk_size=64)
        with pytest.raises(TypeError, match="Snapshotable detector"):
            runner.run(stream, DuckDetector(), n_instances=500)
        assert stream.position == 0  # refused before reading a row


class TestChunkedBatchMode:
    def test_rbmim_detections_identical(self, instance_mode_result):
        # RBM-IM consumes raw (x, y) only, so chunk-granular testing does not
        # change what the detector sees: detections must match exactly.
        scenario = _drifting_scenario()
        runner = PrequentialRunner(
            nb_factory, pretrain_size=200, chunk_size=500, batch_mode=True
        )
        result = runner.run(scenario, _rbmim(scenario), n_instances=N_INSTANCES)
        assert result.detections == instance_mode_result.detections
        assert result.detected_classes == instance_mode_result.detected_classes

    def test_metrics_close_to_instance_mode(self, instance_mode_result):
        scenario = _drifting_scenario()
        runner = PrequentialRunner(
            nb_factory, pretrain_size=200, chunk_size=250, batch_mode=True
        )
        result = runner.run(scenario, _rbmim(scenario), n_instances=N_INSTANCES)
        assert result.n_instances == N_INSTANCES
        assert abs(result.pmauc - instance_mode_result.pmauc) < 0.1
        assert 0.0 <= result.pmgm <= 1.0
        assert result.snapshots[-1].position == instance_mode_result.snapshots[-1].position

    def test_detectorless_baseline_runs(self):
        scenario = make_artificial_stream(
            "rbf", 4, n_instances=2_000, max_imbalance_ratio=10.0, seed=1
        )
        runner = PrequentialRunner(
            nb_factory, pretrain_size=100, chunk_size=300, batch_mode=True
        )
        result = runner.run(scenario, None, n_instances=2_000)
        assert result.detections == []
        assert 0.0 <= result.pmauc <= 1.0


class _WarmStartRecorder(DDM):
    """A DDM that records every ``warm_start`` call."""

    def __init__(self):
        super().__init__()
        self.warm_calls = []

    def warm_start(self, X, y):
        self.warm_calls.append((np.array(X), np.array(y), self.n_observations))
        super().warm_start(X, y)


# name: (pretrain_size, chunk_size, rows in a finite stream or None, calls)
WARM_START_CASES = {
    "chunk equals pretrain": (64, 64, None, 1),
    "pretrain ends mid-chunk": (100, 64, None, 1),
    "no pretrain": (0, 64, None, 0),
    "stream ends at the pretrain boundary": (64, 64, 64, 0),
}


class TestWarmStart:
    @pytest.mark.parametrize("case", WARM_START_CASES)
    def test_once_right_before_the_first_post_pretrain_row(self, case):
        pretrain, chunk, finite_rows, expected = WARM_START_CASES[case]
        modes = {
            "instance": {},
            "exact": {"chunk_size": chunk},
            "batch": {"chunk_size": chunk, "batch_mode": True},
        }
        calls = {}
        for mode, options in modes.items():
            stream = RandomRBFGenerator(n_classes=3, n_features=4, seed=0)
            if finite_rows is not None:
                stream = ListStream(stream.take(finite_rows))
            detector = _WarmStartRecorder()
            runner = PrequentialRunner(nb_factory, pretrain_size=pretrain, **options)
            runner.run(stream, detector, n_instances=500)
            calls[mode] = detector.warm_calls
        assert {mode: len(c) for mode, c in calls.items()} == dict.fromkeys(
            modes, expected
        )
        if expected:
            rows, labels = RandomRBFGenerator(
                n_classes=3, n_features=4, seed=0
            ).generate_batch(pretrain)
            for [(X, y, stepped_before)] in calls.values():
                np.testing.assert_array_equal(X, rows)
                np.testing.assert_array_equal(y, labels)
                assert stepped_before == 0
