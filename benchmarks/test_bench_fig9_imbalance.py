"""Figure 9: pmAUC as a function of the multi-class imbalance ratio.

Experiment 3 of the paper sweeps the maximum imbalance ratio from 50 to 500
and measures how each detector's pmAUC degrades — standard detectors collapse,
skew-insensitive baselines hold up to moderate ratios, and RBM-IM is reported
to stay robust throughout.  This harness regenerates the series on the
artificial benchmark families.
"""

from __future__ import annotations

import pytest

from bench_common import bench_scale, pmauc_series, seeded, stream_length
from repro.evaluation.results import format_series_table
from repro.protocol.registry import PAPER_DETECTORS
from repro.streams.scenarios import make_artificial_stream

_SMALL_GRID = [
    ("rbf", 5, [50.0, 200.0, 500.0]),
    ("hyperplane", 5, [50.0, 200.0, 500.0]),
]
_FULL_GRID = [
    (family, n_classes, [50.0, 100.0, 200.0, 300.0, 400.0, 500.0])
    for family in ("agrawal", "hyperplane", "rbf", "randomtree")
    for n_classes in (5, 10, 20)
]


def _grid():
    return _FULL_GRID if bench_scale() == "full" else _SMALL_GRID


@pytest.mark.benchmark(group="fig9")
@pytest.mark.parametrize("family,n_classes,ratios", _grid())
def test_bench_fig9_imbalance_robustness(benchmark, family, n_classes, ratios):
    """Reproduce one panel of Fig. 9 (pmAUC vs imbalance ratio)."""
    n_instances = stream_length(2_500, 20_000)
    streams = {
        ratio: seeded(
            make_artificial_stream,
            family,
            n_classes,
            n_instances=n_instances,
            max_imbalance_ratio=ratio,
        )
        for ratio in ratios
    }
    series = benchmark.pedantic(pmauc_series, args=(streams, 2), rounds=1, iterations=1)

    print(f"\n=== Fig. 9 panel: {family.capitalize()}{n_classes} ===")
    print(format_series_table("imbalance_ratio", [int(r) for r in ratios], series))

    for name in PAPER_DETECTORS:
        assert len(series[name]) == len(ratios)
        assert all(0.0 <= value <= 100.0 for value in series[name])

    # Report the paper's headline comparison at the most extreme imbalance
    # ratio; asserted only loosely because the scaled-down streams favour
    # frequently-resetting detectors.
    extreme = {name: series[name][-1] for name in PAPER_DETECTORS}
    best_standard = max(extreme["WSTD"], extreme["RDDM"], extreme["FHDDM"])
    print(
        f"\nExtreme imbalance (IR={int(ratios[-1])}): RBM-IM = {extreme['RBM-IM']:.1f}, "
        f"best standard detector = {best_standard:.1f}"
    )
    assert extreme["RBM-IM"] >= best_standard - 30.0, extreme
