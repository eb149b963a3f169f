"""End-to-end integration tests tying streams, detectors, classifiers and metrics.

These are scaled-down versions of the paper's experiments: short streams, the
full detector line-up, and checks on the qualitative outcomes the paper
reports (RBM-IM's per-class drift attribution, its robustness to skew, the
evaluation statistics pipeline).
"""

import numpy as np
import pytest

from repro.core import RBMIM, RBMIMConfig
from repro.detectors import DDM_OCI, FHDDM, PerfSim
from repro.evaluation import (
    PrequentialRunner,
    ResultTable,
    bayesian_signed_test,
    compare_detectors,
    default_classifier_factory,
    friedman_test,
)
from repro.evaluation.experiment import paper_detector_factories
from repro.classifiers import GaussianNaiveBayes
from repro.streams import (
    make_artificial_stream,
    real_world_stream,
    scenario_local_drift,
)


def nb_factory(n_features, n_classes):
    return GaussianNaiveBayes(n_features, n_classes)


def _scenario3_stream() -> "ScenarioStream":
    """A laptop-sized Scenario-3 stream: local drift on the smallest class.

    Built from a compact RandomRBF concept (12 centroids, 8 features); the
    paper's own streams are two orders of magnitude longer.
    """
    from repro.streams import Schedule, ScheduledStream, Segment, StaticImbalance
    from repro.streams.generators import RandomRBFGenerator
    from repro.streams.scenarios import ScenarioStream

    def factory(concept: int):
        return RandomRBFGenerator(
            n_classes=4, n_features=8, n_centroids=12, concept=concept, seed=3
        )

    stream = ScheduledStream(
        factory,
        Schedule.of(
            Segment(length=3_000, concept=0),
            Segment(length=3_000, concept=6, drifted_classes=(3,)),
        ),
        imbalance=StaticImbalance(4, 10.0),
        seed=9,
    )
    return ScenarioStream(
        stream=stream,
        drift_points=stream.drift_points,
        drifted_classes=stream.drifted_classes,
        name="scenario3-integration",
        n_instances=6000,
    )


@pytest.fixture(scope="module")
def local_drift_results():
    """One shared comparison run on a Scenario-3 stream (module-scoped: slow)."""
    scenario = _scenario3_stream()
    factories = {
        "FHDDM": lambda f, c: FHDDM(),
        "DDM-OCI": lambda f, c: DDM_OCI(n_classes=c),
        "RBM-IM": lambda f, c: RBMIM(f, c, RBMIMConfig(batch_size=25, seed=7)),
    }
    return scenario, compare_detectors(
        scenario,
        detector_factories=factories,
        classifier_factory=nb_factory,
        n_instances=scenario.n_instances,
        pretrain_size=200,
    )


class TestEndToEndPipeline:
    def test_full_detector_lineup_on_artificial_stream(self):
        scenario = make_artificial_stream(
            "hyperplane", 5, n_instances=1500, max_imbalance_ratio=10, seed=3
        )
        results = compare_detectors(
            scenario,
            classifier_factory=nb_factory,
            detector_factories=paper_detector_factories(batch_size=25),
            n_instances=1500,
            pretrain_size=150,
        )
        assert len(results) == 6
        for name, result in results.items():
            assert 0.0 <= result.pmauc <= 1.0, name
            assert 0.0 <= result.pmgm <= 1.0, name
            assert result.n_instances == 1500

    def test_real_world_surrogate_end_to_end(self):
        scenario = real_world_stream("Electricity", n_instances=1500, seed=0)
        runner = PrequentialRunner(default_classifier_factory, pretrain_size=150)
        detector = RBMIM(
            scenario.n_features, scenario.n_classes, RBMIMConfig(batch_size=25, seed=0)
        )
        result = runner.run(scenario, detector, n_instances=1500)
        assert result.pmauc > 0.5
        assert result.drift_report is not None

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "RBM-IM local-drift oracle: on this stream RBM-IM detects the "
            "class-3 drift within 3 000 rows in 1 of 10 engine seeds (0-9), "
            "in 2 of 10 with 9 000 post-drift rows, and in 0 of 10 on a "
            "balanced stream; engine seed 9 is not one of them"
        ),
    )
    def test_rbmim_detects_local_drift(self, local_drift_results):
        scenario, results = local_drift_results
        rbm_result = results["RBM-IM"]
        drift_position = scenario.drift_points[0]
        post_alarms = [p for p in rbm_result.detections if p >= drift_position]
        assert post_alarms, "RBM-IM missed the injected local drift"
        # Per-class attribution on imbalanced laptop-scale streams is best
        # effort (the paper notes RBM-IM underfits on small streams); exact
        # attribution is asserted on the balanced case in the core unit tests.
        assert rbm_result.detected_classes, "no class attribution recorded"

    def test_rbmim_competitive_on_local_drift(self, local_drift_results):
        _scenario, results = local_drift_results
        rbm = results["RBM-IM"].pmauc
        best_baseline = max(results["FHDDM"].pmauc, results["DDM-OCI"].pmauc)
        # The paper's headline claim, scaled down: RBM-IM should not be
        # dominated by the baselines on local-drift scenarios.
        assert rbm >= best_baseline - 0.1

    def test_detection_reports_available_for_all(self, local_drift_results):
        _scenario, results = local_drift_results
        for result in results.values():
            assert result.drift_report is not None
            assert result.drift_report.n_true_drifts == 1


class TestStatisticsPipeline:
    def test_result_table_to_friedman_to_bayes(self):
        """The Table III -> Fig. 4/6 analysis chain runs on synthetic results."""
        rng = np.random.default_rng(0)
        table = ResultTable(metric_name="pmAUC")
        methods = ["WSTD", "PerfSim", "RBM-IM"]
        offsets = {"WSTD": 0.0, "PerfSim": 0.08, "RBM-IM": 0.2}
        for dataset in [f"stream{i}" for i in range(12)]:
            base = rng.uniform(0.4, 0.7)
            for method in methods:
                table.add(dataset, method, base + offsets[method] + rng.normal(0, 0.01))
        matrix = table.to_matrix()
        friedman = friedman_test(matrix)
        assert friedman.significant
        ranks = table.ranks()
        assert ranks["RBM-IM"] < ranks["WSTD"]
        bayes = bayesian_signed_test(matrix[:, 2], matrix[:, 0], rope=0.01, seed=0)
        assert bayes.p_left > 0.9

    def test_imbalance_aware_detectors_handle_many_classes(self):
        """PerfSim / DDM-OCI must at least run on wide multi-class problems."""
        scenario = make_artificial_stream(
            "rbf", 10, n_instances=1200, max_imbalance_ratio=50, seed=5
        )
        factories = {
            "PerfSim": lambda f, c: PerfSim(n_classes=c, batch_size=200),
            "DDM-OCI": lambda f, c: DDM_OCI(n_classes=c),
        }
        results = compare_detectors(
            scenario,
            detector_factories=factories,
            classifier_factory=nb_factory,
            n_instances=1200,
            pretrain_size=150,
        )
        for result in results.values():
            assert np.isfinite(result.pmauc)
