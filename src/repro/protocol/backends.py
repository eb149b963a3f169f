"""Execution backends for fanning out grid cell tasks.

Each strategy sits behind one :class:`ExecutionBackend` contract, and
:data:`BACKENDS` names the three built-in ones, so
:meth:`ProtocolPipeline.run(backend=...) <repro.protocol.pipeline.
ProtocolPipeline.run>` and the ``python -m repro.protocol`` CLI select the
execution strategy by name:

* ``serial``  — in-process loop; deterministic ordering, easiest to debug;
* ``thread``  — one :class:`~concurrent.futures.ThreadPoolExecutor`;
* ``process`` — one :class:`~concurrent.futures.ProcessPoolExecutor` with
  broken-pool recovery (a worker death poisons every future sharing the
  pool; innocents are resubmitted on a fresh pool, repeat offenders last,
  up to :data:`_MAX_BROKEN_RETRIES` broken pools per cell).  Payloads that
  cannot be pickled degrade to ``thread`` with a :class:`RuntimeWarning`.

The pipeline also accepts any :class:`ExecutionBackend` instance in place of
a name.
"""

from __future__ import annotations

import traceback
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    wait,
)
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.evaluation.grid import CellTask, GridCellResult, _execute_cell

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
]

Progress = Callable[[GridCellResult], None]

#: Times a cell may be caught in a broken pool before it is written off.
#: A crashing worker (OOM kill, native segfault) breaks *every* future
#: sharing the pool, so innocent queued cells legitimately see one or two
#: broken pools before they get a clean run of their own.
_MAX_BROKEN_RETRIES = 2


@runtime_checkable
class ExecutionBackend(Protocol):
    """One strategy for executing cell tasks.

    ``run`` preserves input order in its return value, invokes ``progress``
    with every finished cell (in completion order), and surfaces worker
    crashes as failed :class:`GridCellResult`\\ s rather than exceptions.
    """

    name: str

    def run(
        self,
        tasks: Sequence[CellTask],
        *,
        max_workers: "int | None" = None,
        progress: "Progress | None" = None,
    ) -> list[GridCellResult]: ...


# ------------------------------------------------------------------ local
class SerialBackend:
    """In-process loop; deterministic ordering, easiest to debug."""

    name = "serial"

    def run(self, tasks, *, max_workers=None, progress=None):
        results = []
        for task in tasks:
            cell_result = task.execute()
            if progress is not None:
                progress(cell_result)
            results.append(cell_result)
        return results


def _run_on_pool(
    tasks: Sequence[CellTask],
    make_executor: Callable[[], Executor],
    progress: "Progress | None",
) -> list[GridCellResult]:
    """Fan tasks over ``concurrent.futures`` with broken-pool recovery.

    A worker death (OOM kill, segfault) breaks the whole process pool: every
    pending future — including cells that never got to run — fails with
    :class:`~concurrent.futures.BrokenExecutor`.  Those cells are resubmitted
    on a fresh executor rather than written off, up to
    ``_MAX_BROKEN_RETRIES`` broken pools per cell; repeat offenders are
    resubmitted last so queued innocents drain before the likely culprit can
    break the next pool.  Only the cells still caught in a broken pool after
    the retry budget are recorded as per-cell failures.
    """
    executor = make_executor()
    futures: dict[Future, int] = {}
    broken_counts: dict[int, int] = {}

    def submit(index: int) -> Future:
        nonlocal executor
        try:
            future = executor.submit(_execute_cell, *tasks[index].args())
        except BrokenExecutor:
            # The pool died since the last submit; replace it.
            executor.shutdown(wait=False, cancel_futures=True)
            executor = make_executor()
            future = executor.submit(_execute_cell, *tasks[index].args())
        futures[future] = index
        return future

    try:
        by_index: dict[int, GridCellResult] = {}
        pending = {submit(index) for index in range(len(tasks))}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            retry: list[int] = []
            for future in done:
                index = futures.pop(future)
                try:
                    cell_result = future.result()
                except BrokenExecutor:
                    # A worker death poisons every future sharing the pool;
                    # give this cell a fresh pool unless it keeps being
                    # caught in (or causing) the crashes.
                    broken_counts[index] = broken_counts.get(index, 0) + 1
                    if broken_counts[index] <= _MAX_BROKEN_RETRIES:
                        retry.append(index)
                        continue
                    cell_result = GridCellResult(
                        cell=tasks[index].cell,
                        result=None,
                        wall_time=float("nan"),
                        error=traceback.format_exc(),
                    )
                except Exception:  # lint: disable=broad-except -- any exception a worker raised is per-cell data, not fatal to the grid
                    cell_result = GridCellResult(
                        cell=tasks[index].cell,
                        result=None,
                        wall_time=float("nan"),
                        error=traceback.format_exc(),
                    )
                by_index[index] = cell_result
                if progress is not None:
                    progress(cell_result)
            # Repeat offenders last: cells that already saw several broken
            # pools are the likeliest crashers, so queued innocents drain
            # first on the replacement pool.
            for index in sorted(retry, key=lambda i: (broken_counts[i], i)):
                pending.add(submit(index))
    except BaseException:
        # On Ctrl-C (or a raising progress callback) drop the queued cells
        # instead of draining them; in-flight cells still finish.
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown()
    return [by_index[index] for index in range(len(tasks))]


class ThreadBackend:
    """One thread per worker; right when factories are closures."""

    name = "thread"

    def run(self, tasks, *, max_workers=None, progress=None):
        from concurrent.futures import ThreadPoolExecutor

        return _run_on_pool(
            tasks, lambda: ThreadPoolExecutor(max_workers=max_workers), progress
        )


def tasks_picklable(tasks: Sequence[CellTask]) -> bool:
    """Whether every task's **full** payload can cross a process boundary.

    Probes ``task.args()`` — the exact tuple a process worker receives — not
    just the three factories: an unpicklable value hiding inside
    ``runner_kwargs``/``run_kwargs`` would otherwise pass the probe and then
    fail every cell at submit time on the process backend.
    """
    import pickle

    try:
        pickle.dumps(tuple(task.args() for task in tasks))
    except Exception:  # noqa: BLE001 - any pickling failure means "no"
        return False
    return True


class ProcessBackend:
    """One OS process per worker (NumPy-heavy cells scale with cores)."""

    name = "process"

    def run(self, tasks, *, max_workers=None, progress=None):
        if not tasks_picklable(tasks):
            warnings.warn(
                "process backend: task payload is not picklable "
                "(lambda/closure factory, or an unpicklable value in "
                "runner_kwargs/run_kwargs); degrading to the thread backend",
                RuntimeWarning,
                stacklevel=2,
            )
            return ThreadBackend().run(
                tasks, max_workers=max_workers, progress=progress
            )
        from concurrent.futures import ProcessPoolExecutor

        return _run_on_pool(
            tasks, lambda: ProcessPoolExecutor(max_workers=max_workers), progress
        )


#: The built-in backends by name (the CLI's ``--backend`` choices).
BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}
