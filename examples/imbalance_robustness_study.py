"""Imbalance-robustness study: how detectors cope as the skew grows.

Experiment 3 of the paper (Fig. 9) sweeps the maximum multi-class imbalance
ratio and shows that standard detectors collapse, the skew-insensitive
baselines survive moderate ratios, and RBM-IM stays robust.  This example runs
a scaled-down version of that sweep on a single artificial stream family and
prints the pmAUC series per detector, plus the Friedman ranks over the sweep.

Each imbalance ratio is one :class:`~repro.protocol.spec.ProtocolSpec` over
the paper's detector line-up, with each detector's settings taken from the
registry, run through :class:`~repro.protocol.pipeline.ProtocolPipeline`
into a temporary results store.

Run with::

    python examples/imbalance_robustness_study.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.classifiers import GaussianNaiveBayes
from repro.evaluation import format_series_table, friedman_test
from repro.protocol import PAPER_DETECTORS, ProtocolPipeline, ProtocolSpec

IMBALANCE_RATIOS = [25.0, 100.0, 300.0, 500.0]
N_INSTANCES = 3_000


def classifier_factory(n_features: int, n_classes: int) -> GaussianNaiveBayes:
    return GaussianNaiveBayes(n_features, n_classes)


def main() -> None:
    series: dict[str, list[float]] = {name: [] for name in PAPER_DETECTORS}
    with tempfile.TemporaryDirectory() as store:
        for ratio in IMBALANCE_RATIOS:
            spec = ProtocolSpec(
                name=f"imbalance-{ratio:g}",
                families=("rbf",),
                class_counts=(5,),
                scenarios=(1,),
                seeds=(11,),
                n_instances=N_INSTANCES,
                max_imbalance_ratio=ratio,
            )
            pipeline = ProtocolPipeline(spec, store, classifier_factory)
            pipeline.run(backend="serial")
            table = pipeline.table("pmauc", scale=100.0)
            (benchmark,) = table.datasets
            for name in series:
                series[name].append(table.value(benchmark, name))
            print(f"finished imbalance ratio {ratio:.0f}")

    print("\npmAUC [%] as the maximum imbalance ratio grows:")
    print(format_series_table("imbalance_ratio", [int(r) for r in IMBALANCE_RATIOS], series))

    matrix = np.column_stack([series[name] for name in series])
    friedman = friedman_test(matrix)
    print("\nFriedman test over the sweep:")
    print(f"  chi-square = {friedman.statistic:.3f}, p = {friedman.p_value:.4f}")
    for name, rank in zip(series, friedman.average_ranks):
        print(f"  {name:10s} average rank = {rank:.2f}")


if __name__ == "__main__":
    main()
