"""Shared infrastructure for the benchmark harnesses.

Every table and figure of the paper's evaluation has a dedicated
``test_bench_*.py`` harness in this directory.  Each runs its grid as
:class:`~repro.evaluation.grid.CellTask`\\ s on the serial backend, the path
:class:`~repro.protocol.pipeline.ProtocolPipeline` uses: a cell builds its
stream from ``(factory, seed)`` and its detector from
:mod:`repro.protocol.registry`, the one copy of the paper's settings.

Stream lengths and the number of benchmark streams are scaled down by
default so the full suite runs in a few minutes on a laptop; set the
environment variable ``REPRO_BENCH_SCALE=full`` for longer streams (closer to
the paper's setup, at a correspondingly higher runtime).

The paper's absolute numbers were obtained on 1-2M instance streams with MOA
and tuned hyper-parameters; the scaled-down harness reproduces the *shape* of
the comparisons (which detector family wins where, and how performance reacts
to local drifts and rising imbalance), not the absolute values.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Sequence

from repro.classifiers import GaussianNaiveBayes
from repro.evaluation.grid import CellTask, GridCell, StreamFactory, cell_record
from repro.protocol.analysis import records_to_table
from repro.protocol.backends import SerialBackend
from repro.protocol.registry import PAPER_DETECTORS, detector_factory
from repro.streams.real_world import real_world_stream
from repro.streams.scenarios import ScenarioStream, make_artificial_stream

#: Prequential settings shared by every paper harness.
RUNNER_KWARGS = {"window_size": 1_000, "pretrain_size": 200, "chunk_size": 512}


def bench_scale() -> str:
    """Benchmark scale: ``"small"`` (default) or ``"full"``."""
    return os.environ.get("REPRO_BENCH_SCALE", "small").lower()


def stream_length(small: int, full: int) -> int:
    """Pick a stream length according to the configured scale."""
    return full if bench_scale() == "full" else small


def bench_classifier_factory(n_features: int, n_classes: int):
    """Fast skew-aware classifier used by the benchmark harnesses.

    The paper pairs every detector with a cost-sensitive perceptron tree; the
    benchmark default uses online Gaussian naive Bayes because it is an order
    of magnitude faster while preserving the detector ranking (the classifier
    is identical across detectors, so only relative differences matter).
    """
    return GaussianNaiveBayes(n_features, n_classes)


def seeded(build: Callable[..., ScenarioStream], *args, **kwargs) -> StreamFactory:
    """A stream factory calling ``build(*args, **kwargs)`` with ``seed=seed``."""
    return lambda seed: build(*args, seed=seed, **kwargs)


def detector_tasks(
    stream: str,
    stream_factory: StreamFactory,
    seed: int,
    detectors: "Mapping[str, Callable] | None" = None,
) -> list[CellTask]:
    """One cell per detector (default: the paper line-up) on one stream."""
    if detectors is None:
        detectors = {name: detector_factory(name) for name in PAPER_DETECTORS}
    return [
        CellTask(
            cell=GridCell(stream=stream, detector=name, seed=seed),
            stream_factory=stream_factory,
            detector_factory=factory,
            classifier_factory=bench_classifier_factory,
            runner_kwargs=RUNNER_KWARGS,
        )
        for name, factory in detectors.items()
    ]


def run_cells(tasks: Sequence[CellTask]) -> list[dict]:
    """Run ``tasks`` on the serial backend: one record per cell, in order.

    Raises on a failed cell, because :func:`records_to_table` skips records
    that carry an error and a failure would otherwise vanish from a table.
    """
    results = SerialBackend().run(tasks)
    for cell_result in results:
        if not cell_result.ok:
            raise RuntimeError(
                f"benchmark cell {cell_result.cell} failed:\n{cell_result.error}"
            )
    return [cell_record(cell_result) for cell_result in results]


def pmauc_series(
    streams: "Mapping[object, StreamFactory]", seed: int
) -> dict[str, list[float]]:
    """pmAUC [%] of the paper's detectors per x value of a figure (Figs. 8-9).

    ``streams`` maps each x value to its stream factory, in plot order.
    """
    tasks = [
        task
        for x, factory in streams.items()
        for task in detector_tasks(str(x), factory, seed)
    ]
    table = records_to_table(run_cells(tasks), "pmauc", scale=100.0)
    return {
        method: [table.value(str(x), method) for x in streams]
        for method in table.methods
    }


def table_i_benchmark_streams() -> list[tuple[str, StreamFactory]]:
    """The 24-stream benchmark of Table I (subset at small scale).

    At ``small`` scale a representative subset is used: six real-world
    surrogates spanning few/many classes and low/high imbalance, plus six
    artificial streams (one per family and class count mix).  At ``full``
    scale all 24 streams are built.  Each entry is ``(name, factory)``.
    """
    if bench_scale() == "full":
        real_names = [
            "Activity-Raw", "Connect4", "Covertype", "Crimes", "DJ30", "EEG",
            "Electricity", "Gas", "Olympic", "Poker", "IntelSensors", "Tags",
        ]
        artificial = [
            ("agrawal", 5), ("agrawal", 10), ("agrawal", 20),
            ("hyperplane", 5), ("hyperplane", 10), ("hyperplane", 20),
            ("rbf", 5), ("rbf", 10), ("rbf", 20),
            ("randomtree", 5), ("randomtree", 10), ("randomtree", 20),
        ]
        n_instances = 50_000
        max_real = 50_000
    else:
        real_names = ["EEG", "Electricity", "Connect4", "Gas", "Olympic", "Tags"]
        artificial = [
            ("agrawal", 5), ("hyperplane", 5), ("rbf", 5),
            ("rbf", 10), ("randomtree", 5), ("randomtree", 10),
        ]
        n_instances = 3_000
        max_real = 3_000

    streams = [
        (name, seeded(real_world_stream, name, max_instances=max_real))
        for name in real_names
    ]
    for family, n_classes in artificial:
        stream = seeded(
            make_artificial_stream,
            family,
            n_classes,
            n_instances=n_instances,
            max_imbalance_ratio=50.0,
        )
        streams.append((f"{family.capitalize()}{n_classes}", stream))
    return streams
