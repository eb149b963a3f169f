"""End-to-end integration tests tying streams, detectors, classifiers and metrics.

These are scaled-down versions of the paper's experiments: short streams, the
full detector line-up, and checks on the qualitative outcomes the paper
reports (RBM-IM's per-class drift attribution, its robustness to skew, the
evaluation statistics pipeline).
"""

import numpy as np
import pytest

from repro.core import RBMIM, RBMIMConfig
from repro.detectors import DDM_OCI, FHDDM
from repro.evaluation import (
    PrequentialRunner,
    ResultTable,
    bayesian_signed_test,
    default_classifier_factory,
    friedman_test,
)
from repro.evaluation.grid import CellTask, GridCell
from repro.classifiers import GaussianNaiveBayes
from repro.protocol import (
    PAPER_DETECTORS,
    ProtocolPipeline,
    ProtocolSpec,
    SerialBackend,
    build_detector,
)
from repro.streams import real_world_stream


def nb_factory(n_features, n_classes):
    return GaussianNaiveBayes(n_features, n_classes)


def _run_protocol(store, **spec_fields) -> ProtocolPipeline:
    """Run a one-benchmark spec serially with GNB and the registry's detectors."""
    pipeline = ProtocolPipeline(
        ProtocolSpec(scenarios=(1,), **spec_fields), store, classifier_factory=nb_factory
    )
    assert pipeline.run(backend="serial").n_failed == 0
    return pipeline


def _scenario3_stream(seed: int = 9) -> "ScenarioStream":
    """A laptop-sized Scenario-3 stream: local drift on the smallest class.

    Built from a compact RandomRBF concept (12 centroids, 8 features); the
    paper's own streams are two orders of magnitude longer.  ``seed`` is the
    schedule engine's seed.
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
        seed=seed,
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
    """One shared comparison run on a Scenario-3 stream (module-scoped: slow).

    The strict xfail below is calibrated on these three hand-built detectors,
    so they stay out of the registry.
    """
    factories = {
        "FHDDM": lambda f, c: FHDDM(),
        "DDM-OCI": lambda f, c: DDM_OCI(n_classes=c),
        "RBM-IM": lambda f, c: RBMIM(f, c, RBMIMConfig(batch_size=25, seed=7)),
    }
    tasks = [
        CellTask(
            cell=GridCell(stream="scenario3-integration", detector=name, seed=9),
            stream_factory=_scenario3_stream,
            detector_factory=factory,
            classifier_factory=nb_factory,
            runner_kwargs={"pretrain_size": 200, "chunk_size": 512},
        )
        for name, factory in factories.items()
    ]
    cell_results = SerialBackend().run(tasks)
    assert all(cell_result.ok for cell_result in cell_results)
    return _scenario3_stream(), {
        cell_result.cell.detector: cell_result.result for cell_result in cell_results
    }


class TestEndToEndPipeline:
    def test_full_detector_lineup_on_artificial_stream(self, tmp_path):
        pipeline = _run_protocol(
            tmp_path,
            families=("hyperplane",),
            class_counts=(5,),
            seeds=(3,),
            n_instances=1500,
            max_imbalance_ratio=10.0,
            pretrain_size=150,
        )
        records = pipeline.completed_records()
        assert [record["detector"] for record in records] == list(PAPER_DETECTORS)
        for record in records:
            assert 0.0 <= record["pmauc"] <= 1.0, record["detector"]
            assert 0.0 <= record["pmgm"] <= 1.0, record["detector"]
            assert record["n_instances"] == 1500

    def test_real_world_surrogate_end_to_end(self):
        scenario = real_world_stream("Electricity", n_instances=1500, seed=0)
        runner = PrequentialRunner(default_classifier_factory, pretrain_size=150)
        detector = build_detector("RBM-IM", scenario.n_features, scenario.n_classes)
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

    def test_imbalance_aware_detectors_handle_many_classes(self, tmp_path):
        """PerfSim / DDM-OCI must at least run on wide multi-class problems."""
        pipeline = _run_protocol(
            tmp_path,
            families=("rbf",),
            class_counts=(10,),
            detectors=("PerfSim", "DDM-OCI"),
            seeds=(5,),
            n_instances=1200,
            max_imbalance_ratio=50.0,
            pretrain_size=150,
        )
        table = pipeline.table("pmauc")
        assert table.methods == ["PerfSim", "DDM-OCI"]
        assert np.isfinite(table.to_matrix()).all()
