"""The execution-backend layer: name validation, fallbacks, equivalence.

Every built-in backend runs the same :class:`CellTask` list to the same
results in input order; a raising cell becomes a failed result, never an
exception.  Broken-process-pool recovery has its own module
(``tests/evaluation/test_grid_broken_pool.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.classifiers import GaussianNaiveBayes
from repro.detectors import DDM_OCI, FHDDM
from repro.evaluation.grid import CellTask, GridCell, cell_record
from repro.protocol.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    _run_on_pool,
    tasks_picklable,
)
from repro.protocol.pipeline import ProtocolPipeline
from repro.protocol.spec import ProtocolSpec
from repro.streams.scenarios import make_artificial_stream

N_INSTANCES = 300


def nb_factory(n_features, n_classes):
    return GaussianNaiveBayes(n_features, n_classes)


def fhddm_factory(n_features, n_classes):
    return FHDDM()


def ddm_oci_factory(n_features, n_classes):
    return DDM_OCI(n_classes=n_classes)


def tiny_stream(seed: int):
    return make_artificial_stream(
        "rbf", 4, n_instances=N_INSTANCES, max_imbalance_ratio=10.0, seed=seed
    )


def _task(name: str, seed: int = 0, **kwargs) -> CellTask:
    return CellTask(
        cell=GridCell(stream=name, detector="FHDDM", seed=seed),
        stream_factory=kwargs.pop("stream_factory", tiny_stream),
        detector_factory=fhddm_factory,
        classifier_factory=nb_factory,
        run_kwargs={"n_instances": N_INSTANCES},
        **kwargs,
    )


def _tiny_spec() -> ProtocolSpec:
    spec = ProtocolSpec.quick()
    spec.n_instances = 400
    spec.window_size = 100
    spec.pretrain_size = 50
    spec.drift_tolerance = 200
    spec.__post_init__()
    return spec


# ------------------------------------------------------- backend selection
def test_unknown_backend_is_a_value_error(tmp_path):
    pipeline = ProtocolPipeline(_tiny_spec(), tmp_path)
    with pytest.raises(ValueError, match="unknown backend"):
        pipeline.run(backend="bogus")
    assert len(pipeline.store) == 0
    assert not (tmp_path / "spec.json").exists()


def test_resolve_accepts_instances_and_rejects_junk(tmp_path):
    """``run`` takes a built-in name or an ExecutionBackend instance; any
    other value is a TypeError before anything is stored."""
    pipeline = ProtocolPipeline(_tiny_spec(), tmp_path)
    with pytest.raises(TypeError):
        pipeline.run(backend=42)
    assert len(pipeline.store) == 0
    assert not (tmp_path / "spec.json").exists()
    assert pipeline.run(backend="serial", max_cells=1).n_executed == 1
    assert pipeline.run(backend=SerialBackend()).n_executed == 1
    assert pipeline.status().done


# ----------------------------------------------------- picklability probing
def test_probe_covers_kwargs_not_just_factories():
    """An unpicklable value hiding in runner_kwargs must fail the probe —
    the old three-factory probe let it through and every cell then died on
    the process backend."""
    clean = _task("a")
    assert tasks_picklable([clean])
    poisoned = _task("b", runner_kwargs={"hook": lambda: None})
    assert not tasks_picklable([poisoned])
    poisoned_run = CellTask(
        cell=clean.cell,
        stream_factory=clean.stream_factory,
        detector_factory=clean.detector_factory,
        classifier_factory=clean.classifier_factory,
        run_kwargs={"n_instances": N_INSTANCES, "junk": lambda: None},
    )
    assert not tasks_picklable([poisoned_run])


def test_process_backend_warns_when_degrading_to_threads():
    closure_seed = 0
    tasks = [_task("a", stream_factory=lambda seed: tiny_stream(closure_seed))]
    with pytest.warns(RuntimeWarning, match="degrading to the thread backend"):
        results = ProcessBackend().run(tasks, max_workers=1)
    assert results[0].ok


# ---------------------------------------------------------- strict records
def _reject_constant(token):
    raise AssertionError(f"non-strict constant {token!r}")


def test_cell_record_replaces_nonfinite_floats():
    """A broken-pool cell's nan wall_time must serialise as null, not NaN."""
    from repro.evaluation.grid import GridCellResult

    failed = GridCellResult(
        cell=GridCell(stream="s", detector="d", seed=0),
        result=None,
        wall_time=float("nan"),
        error="Traceback: broken pool",
    )
    record = cell_record(failed)
    assert record["wall_time"] is None
    json.loads(json.dumps(record), parse_constant=_reject_constant)


def test_cell_record_of_a_finished_cell_round_trips():
    """A finished cell's record survives strict JSON unchanged and carries
    the cell coordinates, the run's metrics and its drift report."""
    (cell_result,) = SerialBackend().run([_task("rbf4", seed=3)])
    run = cell_result.result
    record = cell_record(cell_result)
    loaded = json.loads(json.dumps(record), parse_constant=_reject_constant)
    assert loaded == record
    assert (loaded["stream"], loaded["detector"], loaded["seed"]) == (
        "rbf4",
        "FHDDM",
        3,
    )
    assert loaded["error"] is None
    assert loaded["pmauc"] == run.pmauc
    assert loaded["detections"] == list(run.detections)
    assert loaded["n_instances"] == N_INSTANCES
    assert loaded["drift_report"]["n_detections"] == len(run.detections)


# ------------------------------------------------------- backend behaviour
def test_backends_agree_in_input_order():
    """serial, thread and process return identical pmAUC and detections for
    the same cell tasks, each list in input order."""
    tasks = [
        CellTask(
            cell=GridCell(stream="rbf4", detector=name, seed=seed),
            stream_factory=tiny_stream,
            detector_factory=factory,
            classifier_factory=nb_factory,
            runner_kwargs={"pretrain_size": 50, "chunk_size": 64},
            run_kwargs={"n_instances": N_INSTANCES},
        )
        for name, factory in (("FHDDM", fhddm_factory), ("DDM-OCI", ddm_oci_factory))
        for seed in (0, 1)
    ]
    outcomes = {}
    for name, backend in BACKENDS.items():
        results = backend().run(tasks, max_workers=2)
        assert [r.cell for r in results] == [t.cell for t in tasks]
        assert all(r.ok for r in results), [r.error for r in results]
        outcomes[name] = [
            (r.result.pmauc, tuple(r.result.detections)) for r in results
        ]
    assert any(detections for _, detections in outcomes["serial"])
    assert outcomes["thread"] == outcomes["serial"]
    assert outcomes["process"] == outcomes["serial"]


def _raising_stream(seed: int):
    raise RuntimeError("boom")


def test_raising_cell_becomes_a_failed_result():
    results = SerialBackend().run(
        [_task("broken", stream_factory=_raising_stream), _task("ok")]
    )
    broken, ok = results
    assert not broken.ok
    assert broken.result is None
    assert "Traceback" in broken.error and "boom" in broken.error
    assert ok.ok


@pytest.mark.parametrize("name", ["thread", "process"])
def test_pool_backends_capture_raising_cells(name):
    """On the pool backends too a raising cell is a failed result, its
    traceback survives the trip back from the worker, and progress sees
    every cell exactly once."""
    seen = []
    results = BACKENDS[name]().run(
        [_task("broken", stream_factory=_raising_stream), _task("ok")],
        max_workers=2,
        progress=lambda cell_result: seen.append(cell_result.cell.stream),
    )
    broken, ok = results
    assert not broken.ok
    assert broken.result is None
    assert "Traceback" in broken.error and "boom" in broken.error
    assert ok.ok
    assert sorted(seen) == ["broken", "ok"]


def test_pool_backends_report_cells_in_completion_order():
    """A finished cell reaches progress (and thus is persisted) the moment
    it completes, not behind an earlier-submitted cell still running; the
    returned list is still in input order."""
    fast_reported = threading.Event()

    def slow_stream(seed):
        # Finishes only once "fast" was reported; the timeout turns an
        # in-order regression into a failure instead of a hang.
        fast_reported.wait(timeout=10)
        return tiny_stream(seed)

    finished = []

    def progress(cell_result):
        finished.append(cell_result.cell.stream)
        if cell_result.cell.stream == "fast":
            fast_reported.set()

    results = ThreadBackend().run(
        [_task("slow", stream_factory=slow_stream), _task("fast", seed=1)],
        max_workers=2,
        progress=progress,
    )
    assert finished == ["fast", "slow"]
    assert [r.cell.stream for r in results] == ["slow", "fast"]
    assert all(r.ok for r in results)


def test_raising_progress_drops_queued_cells():
    """An exception from progress (a Ctrl-C, a failing store write) reaches
    the caller without draining the queue: the cell in flight may finish,
    queued cells never start."""
    started = []

    def counting_stream(seed):
        started.append(seed)
        return tiny_stream(seed)

    def interrupt(cell_result):
        raise KeyboardInterrupt("simulated kill")

    executors = []

    def make_executor():
        executors.append(ThreadPoolExecutor(max_workers=1))
        return executors[-1]

    tasks = [_task("c", seed=s, stream_factory=counting_stream) for s in range(8)]
    with pytest.raises(KeyboardInterrupt):
        _run_on_pool(tasks, make_executor, interrupt)
    for executor in executors:
        executor.shutdown(wait=True)  # let the in-flight cell finish
    assert 1 <= len(started) < len(tasks)


@pytest.mark.parametrize("name", ["thread", "process"])
def test_pool_backends_leave_no_workers_behind(name):
    """Once run returns, the pool's worker threads or processes are gone."""
    threads_before = set(threading.enumerate())
    children_before = set(multiprocessing.active_children())
    results = BACKENDS[name]().run(
        [_task("a"), _task("b", seed=1)], max_workers=2
    )
    assert all(r.ok for r in results)
    assert set(threading.enumerate()) - threads_before == set()
    assert set(multiprocessing.active_children()) - children_before == set()


def test_pipeline_accepts_backend_instances(tmp_path):
    class RecordingBackend(SerialBackend):
        name = "recording"

        def __init__(self):
            self.cells = []

        def run(self, tasks, *, max_workers=None, progress=None):
            self.cells.extend(task.cell for task in tasks)
            return super().run(tasks, max_workers=max_workers, progress=progress)

    backend = RecordingBackend()
    pipeline = ProtocolPipeline(_tiny_spec(), str(tmp_path / "results"))
    summary = pipeline.run(backend=backend)
    assert len(backend.cells) == 2
    assert summary.n_executed == 2
    assert summary.n_failed == 0
    assert pipeline.status().done
