"""Resumable execution of a :class:`~repro.protocol.spec.ProtocolSpec`.

:class:`ProtocolPipeline` glues the layers together: the spec expands into
cells, each pending cell becomes a :class:`~repro.evaluation.grid.CellTask`
(scenario stream factory from :mod:`repro.streams.scenarios`, detector
factory from the registry, the paper's default classifier), a pluggable
:class:`~repro.protocol.backends.ExecutionBackend` fans the tasks out, and
every finished cell is **immediately** persisted into the results store
before any progress callback runs.  Because persistence is per-cell and
atomic (or append-durable, for the sharded store), a run killed at any
point loses at most the cells in flight; re-invoking the pipeline skips
every stored cell and recomputes only the rest.

The pipeline consumes stores only through
:class:`~repro.protocol.store.ResultsStoreProtocol` — the single-file
:class:`~repro.protocol.store.ResultsStore` and the segment-based
:class:`~repro.protocol.sharded_store.ShardedResultsStore` are
interchangeable, and ``pending()``/``status()`` are one bulk
:meth:`~repro.protocol.store.ResultsStoreProtocol.statuses` scan rather
than a per-key ``get`` loop.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.evaluation.experiment import default_classifier_factory
from repro.evaluation.grid import CellTask, GridCell, GridCellResult, cell_record
from repro.evaluation.results import ResultTable
from repro.protocol.backends import BACKENDS, ExecutionBackend
from repro.protocol.registry import detector_factory
from repro.protocol.spec import ProtocolCell, ProtocolSpec, callable_label
from repro.protocol.store import ResultsStore, ResultsStoreProtocol

__all__ = ["ProtocolStatus", "ProtocolRunSummary", "ProtocolPipeline"]


@dataclass(frozen=True)
class ProtocolStatus:
    """Cell accounting of a store against a spec."""

    n_cells: int
    n_completed: int
    n_failed: int

    @property
    def n_pending(self) -> int:
        return self.n_cells - self.n_completed - self.n_failed

    @property
    def done(self) -> bool:
        return self.n_completed == self.n_cells

    def describe(self) -> str:
        return (
            f"{self.n_cells} cells: {self.n_completed} completed, "
            f"{self.n_failed} failed, {self.n_pending} pending"
        )


@dataclass
class ProtocolRunSummary:
    """Outcome of one :meth:`ProtocolPipeline.run` invocation."""

    n_cells: int
    n_skipped: int
    n_executed: int
    n_failed: int
    wall_time: float
    executed_keys: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"{self.n_cells} cells: {self.n_skipped} cached, "
            f"{self.n_executed} executed ({self.n_failed} failed) "
            f"in {self.wall_time:.1f}s"
        )


class ProtocolPipeline:
    """Run, resume, and inspect one protocol spec against one results store.

    Parameters
    ----------
    spec:
        The protocol to execute.
    store:
        Any :class:`~repro.protocol.store.ResultsStoreProtocol`
        implementation (:class:`ResultsStore`,
        :class:`~repro.protocol.sharded_store.ShardedResultsStore`, ...).
        A bare directory path means a single-file :class:`ResultsStore`.
    classifier_factory:
        Base classifier for every cell; defaults to the paper's
        cost-sensitive perceptron tree.  Must be picklable for the process
        backend.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        store: "ResultsStoreProtocol | str | os.PathLike[str]",
        classifier_factory: Callable | None = None,
    ) -> None:
        self._spec = spec
        if isinstance(store, (str, os.PathLike)):
            store = ResultsStore(store)
        self._store = store
        self._classifier_factory = classifier_factory or default_classifier_factory
        # Hashed into every cell key: a different classifier must never be
        # served records computed with another one.
        self._classifier_label = callable_label(self._classifier_factory)

    @property
    def spec(self) -> ProtocolSpec:
        return self._spec

    @property
    def store(self) -> ResultsStoreProtocol:
        return self._store

    # -------------------------------------------------------------- planning
    def cells(self) -> list[tuple[ProtocolCell, str]]:
        """Every (cell, key) of the spec, in deterministic order."""
        return [
            (cell, self._spec.cell_key(cell, self._classifier_label))
            for cell in self._spec.expand()
        ]

    def pending(self, retry_failed: bool = True) -> list[tuple[ProtocolCell, str]]:
        """Cells with no usable stored record (optionally retrying failures).

        One bulk :meth:`~repro.protocol.store.ResultsStoreProtocol.statuses`
        scan of the store, not a per-key ``get`` loop.
        """
        statuses = self._store.statuses()
        remaining = []
        for cell, key in self.cells():
            ok = statuses.get(key)
            if ok is None or (not ok and retry_failed):
                remaining.append((cell, key))
        return remaining

    def task_for(
        self, cell: ProtocolCell, checkpoint_every: int | None = None
    ) -> CellTask:
        """The fully-specified, picklable unit of work for one cell.

        With ``checkpoint_every`` set (and a store exposing the checkpoint
        side area), the runner periodically persists a mid-cell
        :class:`~repro.evaluation.checkpoint.RunnerCheckpoint` under the
        cell's key and resumes from it on re-execution — the checkpoint path
        crosses the process boundary as a plain string, so every backend
        stays picklable.
        """
        runner_kwargs = {
            "window_size": self._spec.window_size,
            "pretrain_size": self._spec.pretrain_size,
            "chunk_size": self._spec.chunk_size,
            "batch_mode": self._spec.batch_mode,
        }
        run_kwargs = {
            "n_instances": self._spec.n_instances,
            "drift_tolerance": self._spec.drift_tolerance,
        }
        if checkpoint_every is not None:
            path_for = getattr(self._store, "checkpoint_path_for", None)
            if path_for is not None:
                key = self._spec.cell_key(cell, self._classifier_label)
                run_kwargs["checkpoint_path"] = str(path_for(key))
                run_kwargs["checkpoint_every"] = int(checkpoint_every)
        return CellTask(
            cell=GridCell(
                stream=cell.benchmark, detector=cell.detector, seed=cell.seed
            ),
            stream_factory=self._spec.stream_factory(cell),
            detector_factory=detector_factory(cell.detector),
            classifier_factory=self._classifier_factory,
            runner_kwargs=runner_kwargs,
            run_kwargs=run_kwargs,
        )

    # ------------------------------------------------------------- execution
    def run(
        self,
        max_workers: int | None = None,
        backend: "str | ExecutionBackend" = "process",
        progress: Callable[[GridCellResult], None] | None = None,
        retry_failed: bool = True,
        max_cells: int | None = None,
        checkpoint_every: int | None = None,
    ) -> ProtocolRunSummary:
        """Execute every pending cell, persisting each the moment it finishes.

        Completed cells (a readable stored record without an error) are
        **never recomputed**; re-invoking after an interruption finishes only
        the remainder.  ``backend`` is a built-in backend name (``serial``
        / ``thread`` / ``process``) or an
        :class:`~repro.protocol.backends.ExecutionBackend` instance;
        ``max_cells`` caps how many pending cells this invocation takes on
        (useful for incremental/smoke runs).  ``checkpoint_every`` makes
        resume *mid-cell*: each runner persists a checkpoint into the store's
        side area at least every that many instances, a killed run re-enters
        its in-flight cells from those checkpoints (bit-identical to an
        uninterrupted run), and each cell's checkpoint is discarded the
        moment its record lands.  An unknown ``backend`` or a
        ``checkpoint_every`` below 1 is refused before anything is stored.
        """
        started = time.perf_counter()
        if isinstance(backend, str):
            if backend not in BACKENDS:
                raise ValueError(
                    f"unknown backend {backend!r}; expected one of "
                    f"{sorted(BACKENDS)}"
                )
            backend = BACKENDS[backend]()
        elif not isinstance(backend, ExecutionBackend):
            raise TypeError(
                f"backend must be a backend name or an ExecutionBackend, "
                f"got {backend!r}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 or None")
        self._store.save_spec(self._spec.to_json())
        todo = self.pending(retry_failed=retry_failed)
        n_total = len(self._spec)
        n_skipped = n_total - len(todo)
        if max_cells is not None:
            todo = todo[: max(0, int(max_cells))]
        if not todo:
            return ProtocolRunSummary(
                n_cells=n_total,
                n_skipped=n_skipped,
                n_executed=0,
                n_failed=0,
                wall_time=time.perf_counter() - started,
            )

        key_of = {
            (cell.benchmark, cell.detector, cell.seed): key for cell, key in todo
        }
        cell_of = {
            (cell.benchmark, cell.detector, cell.seed): cell for cell, _ in todo
        }
        executed_keys: list[str] = []

        discard_checkpoint = (
            getattr(self._store, "discard_checkpoint", None)
            if checkpoint_every is not None
            else None
        )

        def persist(cell_result: GridCellResult) -> None:
            grid_cell = cell_result.cell
            coords = (grid_cell.stream, grid_cell.detector, grid_cell.seed)
            key = key_of[coords]
            self._store.put(key, self._record(cell_of[coords], key, cell_result))
            if discard_checkpoint is not None:
                # The cell's record is durable; its mid-cell checkpoint is
                # now stale and must not resurrect on a later retry.
                discard_checkpoint(key)
            executed_keys.append(key)
            if progress is not None:
                progress(cell_result)

        tasks = [self.task_for(cell, checkpoint_every) for cell, _ in todo]
        results = backend.run(tasks, max_workers=max_workers, progress=persist)
        n_failed = sum(1 for cell_result in results if not cell_result.ok)
        return ProtocolRunSummary(
            n_cells=n_total,
            n_skipped=n_skipped,
            n_executed=len(results),
            n_failed=n_failed,
            wall_time=time.perf_counter() - started,
            executed_keys=executed_keys,
        )

    def _record(
        self, cell: ProtocolCell, key: str, cell_result: GridCellResult
    ) -> dict:
        record = cell_record(cell_result)
        record.update(
            key=key,
            benchmark=cell.benchmark,
            family=cell.family,
            n_classes=cell.n_classes,
            scenario=cell.scenario,
            spec_name=self._spec.name,
            run_parameters=self._spec.run_parameters(self._classifier_label),
        )
        return record

    # ------------------------------------------------------------ inspection
    def status(self, retry_failed: bool = True) -> ProtocolStatus:
        """How much of the spec the store already covers (one bulk scan)."""
        statuses = self._store.statuses()
        n_completed = 0
        n_failed = 0
        for _, key in self.cells():
            ok = statuses.get(key)
            if ok is None:
                continue
            if ok:
                n_completed += 1
            else:
                n_failed += 1
        return ProtocolStatus(
            n_cells=len(self._spec), n_completed=n_completed, n_failed=n_failed
        )

    def completed_records(self) -> list[dict]:
        """Stored records of this spec's completed cells, in cell order."""
        keys = [key for _, key in self.cells()]
        found = self._store.get_many(keys)
        return [
            found[key]
            for key in keys
            if key in found and found[key].get("error") is None
        ]

    def table(self, metric: str = "pmauc", scale: float = 1.0) -> ResultTable:
        """(benchmarks x detectors) table of a stored metric, seed-averaged."""
        from repro.protocol.analysis import records_to_table

        return records_to_table(self.completed_records(), metric, scale=scale)
