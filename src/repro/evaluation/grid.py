"""Grid cells: one independent prequential run per (stream, detector, seed).

The paper's evaluation is a large cross-product — 24 benchmark streams, six
detectors, multiple repetitions — and every cell is an independent prequential
run.  A :class:`CellTask` bundles one :class:`GridCell` with the factories
that build its stream, detector and classifier; the protocol pipeline
(:mod:`repro.protocol.pipeline`) expands its spec into cell tasks and fans
them out over a :class:`~repro.protocol.backends.ExecutionBackend`.

Every cell builds its stream *inside the worker* from ``(factory, seed)``, so
no stream state crosses process boundaries and each cell is independently
reproducible.  A cell that raises becomes a failed :class:`GridCellResult`
carrying the traceback, so one broken cell never stops the grid.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

from repro.core.jsonio import sanitize_nonfinite

from repro.evaluation.prequential import PrequentialRunner, RunResult
from repro.streams.base import DataStream
from repro.streams.scenarios import ScenarioStream

__all__ = [
    "GridCell",
    "GridCellResult",
    "CellTask",
    "cell_record",
]

#: Builds the stream for one cell: ``(seed) -> ScenarioStream | DataStream``.
StreamFactory = Callable[[int], "ScenarioStream | DataStream"]
#: Builds a detector for one cell: ``(n_features, n_classes) -> detector``.
DetectorFactory = Callable[[int, int], object]


@dataclass(frozen=True)
class GridCell:
    """Coordinates of one experiment in the grid."""

    stream: str
    detector: str
    seed: int


@dataclass
class GridCellResult:
    """One finished (or failed) grid cell."""

    cell: GridCell
    result: RunResult | None
    wall_time: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


def cell_record(cell_result: GridCellResult) -> dict:
    """One flat JSON-friendly record for a finished (or failed) grid cell.

    Includes the run metrics, detection positions, and — when the stream
    carried ground truth — the drift-detection report (recall, delay, false
    alarms), so a record is self-contained for disk/DB sinks.  The record is
    **strict JSON**: non-finite floats (a broken-pool ``wall_time``, a
    no-detections ``mean_delay``) are replaced by ``None`` so serialising it
    can never emit a bare ``NaN`` that sqlite/parquet/jq consumers reject.
    """
    record: dict = dict(asdict(cell_result.cell))
    record["wall_time"] = cell_result.wall_time
    record["error"] = cell_result.error
    if cell_result.result is not None:
        run = cell_result.result
        record.update(
            pmauc=run.pmauc,
            pmgm=run.pmgm,
            accuracy=run.accuracy,
            kappa=run.kappa,
            detections=list(run.detections),
            n_instances=run.n_instances,
            detector_time=run.detector_time,
            classifier_time=run.classifier_time,
        )
        if run.drift_report is not None:
            report = run.drift_report
            record["drift_report"] = {
                "n_true_drifts": report.n_true_drifts,
                "n_detections": report.n_detections,
                "n_detected": report.n_detected,
                "n_false_alarms": report.n_false_alarms,
                "mean_delay": report.mean_delay,
                "detection_recall": report.detection_recall,
            }
    return sanitize_nonfinite(record)


def _execute_cell(
    cell: GridCell,
    stream_factory: StreamFactory,
    detector_factory: DetectorFactory | None,
    classifier_factory: Callable,
    runner_kwargs: dict,
    run_kwargs: dict,
) -> GridCellResult:
    """Run one grid cell; module-level so process pools can pickle it."""
    started = time.perf_counter()
    try:
        stream = stream_factory(cell.seed)
        if isinstance(stream, ScenarioStream):
            data_stream = stream.stream
        else:
            data_stream = stream
        detector = (
            detector_factory(data_stream.n_features, data_stream.n_classes)
            if detector_factory is not None
            else None
        )
        runner = PrequentialRunner(classifier_factory, **runner_kwargs)
        result = runner.run(
            stream, detector, detector_name=cell.detector, **run_kwargs
        )
        return GridCellResult(
            cell=cell, result=result, wall_time=time.perf_counter() - started
        )
    except Exception:  # noqa: BLE001 - failures are per-cell data, not fatal
        return GridCellResult(
            cell=cell,
            result=None,
            wall_time=time.perf_counter() - started,
            error=traceback.format_exc(),
        )


@dataclass(frozen=True)
class CellTask:
    """A fully-specified unit of grid work: one cell plus its factories.

    The protocol pipeline (:mod:`repro.protocol`) reduces its pending cells
    to a list of cell tasks and hands it to an execution backend
    (:mod:`repro.protocol.backends`); completed cells are never resubmitted.
    """

    cell: GridCell
    stream_factory: StreamFactory
    detector_factory: DetectorFactory | None
    classifier_factory: Callable
    runner_kwargs: Mapping = field(default_factory=dict)
    run_kwargs: Mapping = field(default_factory=dict)

    def args(self) -> tuple:
        return (
            self.cell,
            self.stream_factory,
            self.detector_factory,
            self.classifier_factory,
            dict(self.runner_kwargs),
            dict(self.run_kwargs),
        )

    def execute(self) -> GridCellResult:
        return _execute_cell(*self.args())
