"""The benchmark's workloads, their output checks and the results digest.

Each workload is one cold pass over a fixed list of *units* (a protocol cell
or one detector run) driven through the program's public entry points:

* ``paper-grid`` -- ``ProtocolPipeline.run`` on a trim of the paper's grid
  (six detectors, the default perceptron tree, chunk-exact mode with durable
  mid-cell checkpoints), followed by ``status()`` and ``table()``;
* ``scenario-zoo-batch`` -- ``PrequentialRunner.run`` in batch mode with
  Gaussian naive Bayes, one unit per registry detector except WSTD plus the
  detector-less ``none`` baseline;
* ``exact-rollback`` -- ``PrequentialRunner.run`` in chunk-exact mode with
  Gaussian naive Bayes, where mid-chunk drifts roll the detector back through
  ``snapshot()``/``restore()``.

Only the standard library is imported at module level; :func:`import_program`
pulls in the program, so the worker can time imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

#: Stream rows per unit and checkpoint spacing, per size.  ``full`` is what
#: the benchmark measures; ``tiny`` keeps the harness self-test fast.  A cold
#: WSTD cell runs at roughly 500 rows/s, so paper-grid streams are short
#: enough for several cold passes per run, with checkpoints as often as
#: needed for every cell to save at least twice.
SIZES = {
    "full": {
        "paper-grid": {"n_instances": 3_000, "checkpoint_every": 1_000},
        "scenario-zoo-batch": {"n_instances": 40_000},
        "exact-rollback": {"n_instances": 40_000},
    },
    "tiny": {
        "paper-grid": {"n_instances": 1_200, "checkpoint_every": 500},
        "scenario-zoo-batch": {"n_instances": 1_500},
        "exact-rollback": {"n_instances": 1_500},
    },
}

#: Shared stream settings of the two runner workloads.
RUNNER_SCENARIO = {
    "scenario": 4,
    "family": "rbf",
    "n_classes": 5,
    "n_drifts": 3,
    "max_imbalance_ratio": 100.0,
}
RUNNER_CHUNK = 1_024
RUNNER_PRETRAIN = 200  # PrequentialRunner's default pretrain_size

EXACT_ROLLBACK_DETECTORS = ("HDDM-W", "ADWIN", "EDDM", "DDM-OCI", "RBM-IM", "none")

#: Run metrics every unit must report as finite values within [0, 1].
UNIT_SCORES = ("pmauc", "pmgm", "accuracy")

#: Scratch space for result stores, inside the checkout the benchmark runs in.
WORK_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_work"
)


@dataclass
class Unit:
    """One protocol cell or detector run: its record and its wall time."""

    name: str
    wall_s: float
    rows: int
    record: "dict | None"
    pretrain: int
    problems: list = field(default_factory=list)


@dataclass
class Outcome:
    """Everything one pass over a workload produced."""

    units: list
    first_start: float  # time.monotonic() when the first unit started
    end: float  # time.monotonic() when the workload's last call returned
    problems: list = field(default_factory=list)  # workload-level failures


def import_program() -> None:
    """Import every program module the workloads use (timed as set-up)."""
    import repro.classifiers.naive_bayes  # noqa: F401
    import repro.evaluation.grid  # noqa: F401
    import repro.evaluation.prequential  # noqa: F401
    import repro.protocol  # noqa: F401
    import repro.streams.scenarios  # noqa: F401


def wstd_memo_entries() -> int:
    """Entries in WSTD's process-global p-value memo (0 in a cold process)."""
    from repro.detectors.wstd import _rank_sum_p_value

    return int(_rank_sum_p_value.cache_info().currsize)


# ------------------------------------------------------------------ workloads
def paper_grid_spec(seed: int, size: str):
    """The paper's protocol trimmed to one family at 5 classes, scenarios 1 and 3."""
    import dataclasses

    from repro.protocol import ProtocolSpec

    return dataclasses.replace(
        ProtocolSpec.paper(seeds=(seed,)),
        name="perfbench-paper-grid",
        families=("rbf",),
        class_counts=(5,),
        scenarios=(1, 3),
        chunk_size=512,
        batch_mode=False,
        n_instances=SIZES[size]["paper-grid"]["n_instances"],
    )


def run_paper_grid(seed: int, size: str, span) -> Outcome:
    from repro.protocol import ProtocolPipeline

    spec = paper_grid_spec(seed, size)
    os.makedirs(WORK_DIR, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="paper-grid-", dir=WORK_DIR)
    finished = []  # (time.monotonic() at progress, cell wall time)
    try:
        pipeline = ProtocolPipeline(spec, os.path.join(store_dir, "store"))
        pipeline.run(
            backend="serial",
            checkpoint_every=SIZES[size]["paper-grid"]["checkpoint_every"],
            progress=lambda cell: finished.append(
                (time.monotonic(), cell.wall_time)
            ),
        )
        status = pipeline.status()
        table = pipeline.table()
        report = table.to_text()
        end = time.monotonic()

        problems = []
        if not status.done:
            problems.append(f"status not done: {status.describe()}")
        if len(table.methods) != len(spec.detectors) or not report:
            problems.append("report table does not cover every detector")
        cells = pipeline.cells()
        stored = pipeline.store.get_many([key for _, key in cells])
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another pass still holds a store there
            pass

    units = []
    for cell, key in cells:
        record = stored.get(key)
        wall = record.get("wall_time") if record else None
        units.append(
            Unit(
                name=f"{cell.benchmark}.{cell.detector}",
                wall_s=float(wall) if isinstance(wall, (int, float)) else math.nan,
                rows=spec.n_instances,
                record=record,
                pretrain=spec.pretrain_size,
            )
        )
    if finished:
        # A cell's wall clock starts as the cell begins; the progress
        # callback fires once its record is stored.
        first_start = finished[0][0] - finished[0][1]
    else:
        first_start = end
        problems.append("no cell finished")
    return Outcome(units=units, first_start=first_start, end=end, problems=problems)


def _run_detectors(
    seed: int, size: str, span, workload: str, detectors, batch_mode: bool
) -> Outcome:
    from repro.classifiers.naive_bayes import GaussianNaiveBayes
    from repro.evaluation.grid import GridCell, GridCellResult, cell_record
    from repro.evaluation.prequential import PrequentialRunner
    from repro.protocol.registry import build_detector
    from repro.streams.scenarios import build_scenario_stream

    n_instances = SIZES[size][workload]["n_instances"]
    runner = PrequentialRunner(
        GaussianNaiveBayes, chunk_size=RUNNER_CHUNK, batch_mode=batch_mode
    )

    def run_unit(name: str):
        scenario = build_scenario_stream(
            n_instances=n_instances, seed=seed, **RUNNER_SCENARIO
        )
        detector = build_detector(name, scenario.n_features, scenario.n_classes)
        return scenario.name, runner.run(scenario, detector, detector_name=name)

    units = []
    first_start = time.monotonic()
    for name in detectors:
        started = time.monotonic()
        try:
            stream_name, result = span("protocol.cell_overhead", run_unit, name)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failing unit is data
            stream_name, result, error = "?", None, repr(exc)
        wall = time.monotonic() - started
        record = cell_record(
            GridCellResult(
                cell=GridCell(stream=stream_name, detector=name, seed=seed),
                result=result,
                wall_time=wall,
                error=error,
            )
        )
        units.append(
            Unit(
                name=name,
                wall_s=wall,
                rows=n_instances,
                record=record,
                pretrain=RUNNER_PRETRAIN,
            )
        )
    return Outcome(units=units, first_start=first_start, end=time.monotonic())


def run_scenario_zoo_batch(seed: int, size: str, span) -> Outcome:
    from repro.protocol.registry import DETECTOR_NAMES

    detectors = [name for name in DETECTOR_NAMES if name != "WSTD"]
    return _run_detectors(
        seed, size, span, "scenario-zoo-batch", detectors, batch_mode=True
    )


def run_exact_rollback(seed: int, size: str, span) -> Outcome:
    return _run_detectors(
        seed, size, span, "exact-rollback", EXACT_ROLLBACK_DETECTORS,
        batch_mode=False,
    )


RUNNERS = {
    "paper-grid": run_paper_grid,
    "scenario-zoo-batch": run_scenario_zoo_batch,
    "exact-rollback": run_exact_rollback,
}
WORKLOADS = tuple(RUNNERS)


def _untraced(key, fn, *args):
    return fn(*args)


def run_workload(workload: str, seed: int, size: str = "full", span=None) -> Outcome:
    """One pass over ``workload``; ``span(key, fn, *args)`` wraps each unit."""
    if workload not in RUNNERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return RUNNERS[workload](seed, size, span or _untraced)


# ------------------------------------------------------------------- checks
def _is_score(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and 0.0 <= value <= 1.0
    )


def check_unit(unit: Unit) -> list:
    """Every reason ``unit``'s output is invalid (empty when it is valid)."""
    record = unit.record
    if record is None:
        return ["no record"]
    problems = []
    if record.get("error") is not None:
        problems.append("unit raised: " + str(record["error"]).strip()[-200:])
    try:
        json.dumps(record, allow_nan=False)
    except (TypeError, ValueError) as exc:
        problems.append(f"record is not strict JSON: {exc}")
    detections = record.get("detections")
    if not isinstance(detections, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in detections
    ):
        problems.append("detections missing or not integers")
    else:
        if any(a >= b for a, b in zip(detections, detections[1:])):
            problems.append("detections not strictly increasing")
        if any(not unit.pretrain <= d < unit.rows for d in detections):
            problems.append(f"detections outside [{unit.pretrain}, {unit.rows})")
    for metric in UNIT_SCORES:
        if not _is_score(record.get(metric)):
            problems.append(f"{metric} not finite in [0, 1]: {record.get(metric)!r}")
    if not isinstance(record.get("drift_report"), dict):
        problems.append("no drift_report")
    if not (isinstance(unit.wall_s, float) and unit.wall_s > 0.0):
        problems.append("no wall time")
    return problems


def check_units(units) -> int:
    """Check every unit in place; returns how many failed."""
    failed = 0
    for unit in units:
        unit.problems = check_unit(unit)
        failed += bool(unit.problems)
    return failed


def results_digest(units) -> str:
    """SHA-256 over every unit's detections and run metrics, in unit order."""
    payload = [
        [
            unit.name,
            (unit.record or {}).get("detections"),
            [(unit.record or {}).get(k) for k in ("pmauc", "pmgm", "accuracy", "kappa")],
        ]
        for unit in units
    ]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
