"""Broken-process-pool recovery in :class:`repro.protocol.backends.ProcessBackend`.

A worker that dies abruptly (OOM kill, native segfault — simulated here with
``os._exit``) breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`:
every pending future, including cells that never started, fails with
``BrokenProcessPool``.  The sweep must not write those survivors off — they
are retried on a fresh executor, and only a cell that keeps getting caught in
broken pools (i.e. the crasher itself) is recorded as a per-cell failure.
"""

from __future__ import annotations

import os
from functools import partial

from repro.classifiers import GaussianNaiveBayes
from repro.detectors import FHDDM
from repro.evaluation.grid import CellTask, GridCell
from repro.protocol.backends import ProcessBackend
from repro.streams.scenarios import make_artificial_stream

N_INSTANCES = 400


def nb_factory(n_features, n_classes):
    return GaussianNaiveBayes(n_features, n_classes)


def fhddm_factory(n_features, n_classes):
    return FHDDM()


def _tiny_stream(seed: int):
    return make_artificial_stream(
        "rbf", 4, n_instances=N_INSTANCES, max_imbalance_ratio=10.0, seed=seed
    )


def _kill_once_stream(marker_path: str, seed: int):
    """Die abruptly on the first call (across processes), then behave."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("killed")
        os._exit(1)
    return _tiny_stream(seed)


def _kill_always_stream(seed: int):
    os._exit(1)


def _task(stream_name: str, stream_factory, seed: int = 0) -> CellTask:
    return CellTask(
        cell=GridCell(stream=stream_name, detector="FHDDM", seed=seed),
        stream_factory=stream_factory,
        detector_factory=fhddm_factory,
        classifier_factory=nb_factory,
        run_kwargs={"n_instances": N_INSTANCES},
    )


class TestBrokenPoolRecovery:
    def test_one_worker_death_loses_no_cells(self, tmp_path):
        """One abrupt worker death: queued survivors retry and all cells finish.

        The killer is submitted first so the surviving cells are queued (or
        in flight) behind it when the pool breaks; after the one death the
        killer itself also completes on a fresh pool.
        """
        marker = str(tmp_path / "killed.marker")
        tasks = [_task("killer", partial(_kill_once_stream, marker))]
        tasks += [_task(f"ok{i}", _tiny_stream, seed=i) for i in range(4)]
        results = ProcessBackend().run(tasks, max_workers=2)
        assert os.path.exists(marker), "the killer cell never ran"
        assert len(results) == len(tasks)
        # Input order is preserved and nothing was written off.
        assert [r.cell.stream for r in results] == [t.cell.stream for t in tasks]
        assert all(r.ok for r in results), [r.error for r in results]

    def test_persistent_crasher_fails_alone(self):
        """A cell that always kills its worker fails; every other cell runs.

        With one worker and the crasher submitted last, the innocent cells
        complete before the first pool break, pinning that the crasher alone
        burns its retry budget and is recorded as a per-cell failure.
        """
        tasks = [_task(f"ok{i}", _tiny_stream, seed=i) for i in range(3)]
        tasks += [_task("killer", _kill_always_stream)]
        results = ProcessBackend().run(tasks, max_workers=1)
        assert [r.ok for r in results] == [True, True, True, False]
        assert "Broken" in results[-1].error

    def test_written_off_crasher_reaches_progress(self):
        """The failure recorded for a crasher goes through ``progress`` like
        any finished cell, so the pipeline persists it instead of losing it."""
        seen = []
        tasks = [_task("ok", _tiny_stream), _task("killer", _kill_always_stream)]
        results = ProcessBackend().run(
            tasks,
            max_workers=1,
            progress=lambda r: seen.append((r.cell.stream, r.ok)),
        )
        assert sorted(seen) == [("killer", False), ("ok", True)]
        assert [r.ok for r in results] == [True, False]
