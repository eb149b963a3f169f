"""Ablation study of RBM-IM's design choices (extension beyond the paper).

The components whose contribution is worth isolating are the class-balanced
(skew-insensitive) loss, the Granger-causality decision rule, the
confirmation step and the mini-batch size.  This harness measures pmAUC and
detection counts on a Scenario-3 style stream for each ablated variant, so
the cost of removing each ingredient is visible.  The variants are custom
detector factories run as cells on the same path as the paper's line-up.
"""

from __future__ import annotations

import pytest

from bench_common import detector_tasks, run_cells, seeded, stream_length
from repro.core.detector import RBMIM, RBMIMConfig
from repro.streams.scenarios import scenario_local_drift

_VARIANTS = {
    "RBM-IM (full)": dict(),
    "no class-balanced loss": dict(balance_beta=0.0),
    "no Granger test": dict(use_granger=False),
    "no confirmation": dict(confirmation_batches=1),
    "large batches": dict(batch_size=100),
}


def _make_variant(overrides):
    def factory(n_features, n_classes):
        kwargs = {"batch_size": 25, "seed": 4, **overrides}
        return RBMIM(n_features, n_classes, RBMIMConfig(**kwargs))

    return factory


def _run_ablation():
    stream = seeded(
        scenario_local_drift,
        "rbf",
        n_classes=5,
        n_drifted_classes=2,
        n_instances=stream_length(2_500, 20_000),
        max_imbalance_ratio=25.0,
    )
    variants = {name: _make_variant(overrides) for name, overrides in _VARIANTS.items()}
    tasks = detector_tasks("scenario3-Rbf5-k2", stream, seed=4, detectors=variants)
    return {record["detector"]: record for record in run_cells(tasks)}


@pytest.mark.benchmark(group="ablation")
def test_bench_rbm_im_ablation(benchmark):
    """Measure the impact of removing each RBM-IM ingredient."""
    results = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)

    print("\n=== RBM-IM ablation (Scenario 3, local drift on 2 minority classes) ===")
    print(f"{'variant':28s} {'pmAUC':>8s} {'pmGM':>8s} {'#alarms':>8s}")
    for name, record in results.items():
        print(
            f"{name:28s} {100 * record['pmauc']:8.2f} {100 * record['pmgm']:8.2f} "
            f"{len(record['detections']):8d}"
        )

    for record in results.values():
        assert 0.0 <= record["pmauc"] <= 1.0
    # Removing the confirmation step may only increase the number of alarms.
    assert len(results["no confirmation"]["detections"]) >= len(
        results["RBM-IM (full)"]["detections"]
    )
