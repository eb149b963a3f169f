"""End-to-end, resumable reproduction of the paper's experimental protocol.

This package wires the repo's layers into one runnable pipeline:

* :mod:`repro.protocol.spec` — :class:`ProtocolSpec`, the declarative
  description of Section IV/V (benchmarks x scenarios x detectors x seeds)
  that expands into content-hash-keyed cells;
* :mod:`repro.protocol.registry` — named, picklable factories for the full
  detector zoo, the one copy of each detector's settings, and the paper's
  line-up (:data:`PAPER_DETECTORS`);
* :mod:`repro.protocol.store` — :class:`ResultsStore`, one atomic JSON
  record per cell, which makes interrupted runs resumable and repeated runs
  cached; both stores share :class:`ResultsStoreProtocol`;
* :mod:`repro.protocol.sharded_store` — :class:`ShardedResultsStore`,
  append-only per-writer segments with atomic compaction into a sqlite
  index, for runs past one-file-per-cell scale;
* :mod:`repro.protocol.backends` — the :class:`ExecutionBackend` contract
  and the three built-in backends (``serial`` / ``thread`` / ``process``)
  the pipeline fans cells out over;
* :mod:`repro.protocol.pipeline` — :class:`ProtocolPipeline`, the
  run/resume/status engine over those execution backends;
* :mod:`repro.protocol.analysis` — folds stored records into the paper's
  tables, ranks, and Friedman / Bonferroni-Dunn / Bayesian summaries.

Run it from the command line::

    python -m repro.protocol run --preset quick --store results/
    python -m repro.protocol status --preset quick --store results/
    python -m repro.protocol report --preset quick --store results/
"""

from repro.protocol.analysis import (
    ProtocolAnalysis,
    analyze_records,
    detection_table,
    records_to_table,
    render_report,
)
from repro.protocol.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.protocol.pipeline import (
    ProtocolPipeline,
    ProtocolRunSummary,
    ProtocolStatus,
)
from repro.protocol.registry import (
    DETECTOR_NAMES,
    PAPER_DETECTORS,
    build_detector,
    detector_factory,
)
from repro.protocol.sharded_store import ShardedResultsStore
from repro.protocol.spec import ProtocolCell, ProtocolSpec, benchmark_name, build_scenario
from repro.protocol.store import ResultsStore, ResultsStoreProtocol

__all__ = [
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "ShardedResultsStore",
    "ResultsStoreProtocol",
    "ProtocolAnalysis",
    "analyze_records",
    "detection_table",
    "records_to_table",
    "render_report",
    "ProtocolPipeline",
    "ProtocolRunSummary",
    "ProtocolStatus",
    "DETECTOR_NAMES",
    "PAPER_DETECTORS",
    "build_detector",
    "detector_factory",
    "ProtocolCell",
    "ProtocolSpec",
    "benchmark_name",
    "build_scenario",
    "ResultsStore",
]
