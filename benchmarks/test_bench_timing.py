"""Per-detector update-throughput micro-benchmarks (Table III, bottom rows).

The paper reports the average test/update times of every detector.  These
micro-benchmarks measure the per-instance ``step`` cost of each detector on a
pre-generated imbalanced multi-class stream, using pytest-benchmark's timing
machinery directly (so the numbers in the benchmark table are directly
comparable across detectors).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocol.registry import PAPER_DETECTORS, detector_factory
from repro.streams.scenarios import make_artificial_stream

_N_WARMUP = 200
_N_TIMED = 1_000


@pytest.fixture(scope="module")
def timing_stream():
    scenario = make_artificial_stream(
        "rbf", 5, n_instances=_N_WARMUP + _N_TIMED + 10, max_imbalance_ratio=50, seed=9
    )
    instances = scenario.stream.take(_N_WARMUP + _N_TIMED)
    X = np.vstack([inst.x for inst in instances])
    y = np.asarray([inst.y for inst in instances])
    return scenario, X, y


@pytest.mark.benchmark(group="timing")
@pytest.mark.parametrize("detector_name", sorted(PAPER_DETECTORS))
def test_bench_detector_update_throughput(benchmark, timing_stream, detector_name):
    """Time the per-instance update cost of one detector."""
    scenario, X, y = timing_stream
    factory = detector_factory(detector_name)

    def run_updates():
        detector = factory(scenario.n_features, scenario.n_classes)
        detector.warm_start(X[:_N_WARMUP], y[:_N_WARMUP])
        # Feed the classifier's own label back as the prediction: timing is
        # independent of prediction quality.
        for i in range(_N_WARMUP, _N_WARMUP + _N_TIMED):
            detector.step(X[i], int(y[i]), int(y[(i + 1) % len(y)]))
        return detector.n_observations

    observations = benchmark.pedantic(run_updates, rounds=1, iterations=1)
    assert observations == _N_TIMED
