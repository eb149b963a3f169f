"""Self-test of the benchmark harness at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/tests

Checks that every workload emits every end-to-end and per-layer metric named
in ``BENCHMARK.json`` with matching results digests, that an invalid unit
output is counted as a failed operation, and that the traced run leaves no
class patched.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


def _run_bench(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = [line for line in lines if line.startswith("results_digest: ")]
    return json.loads(lines[-1]), digest, proc.stdout


def test_benchmark_json_names_every_workload_and_layer_metric():
    from repro.protocol.registry import DETECTOR_NAMES

    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    expected = layertrace.layer_metric_names(
        [name for name in DETECTOR_NAMES if name != "none"]
    )
    assert [m["name"] for m in BENCH["per_layer"]] == expected
    for metric in BENCH["per_layer"]:
        assert metric["unit"] == layertrace.metric_unit(metric["name"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric_and_traced_digest_matches(workload):
    plain, plain_digest, out = _run_bench(workload, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] is True, out
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for value in plain["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0

    traced, traced_digest, out = _run_bench(workload, 1)
    assert traced["correct"] is True, out
    assert list(traced["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert plain_digest and traced_digest == plain_digest
    layers = {name: v["value"] for name, v in traced["metrics"].items()}
    assert layers["detectors.wstd_memo_entries_start"] == 0
    assert layers["trace.accounted_share"] >= run.MIN_ACCOUNTED_SHARE


def test_forced_invalid_output_is_counted_as_failed():
    outcome = workloads.run_workload("exact-rollback", 0, "tiny")
    units = outcome.units
    assert workloads.check_units(units) == 0
    units[0].record["pmauc"] = math.nan
    units[1].record["detections"] = [900, 400]
    units[2].record.pop("drift_report")
    units[3].record["error"] = "Traceback: boom"
    units[4].record["detections"] = [units[4].rows]
    assert workloads.check_units(units) == 5
    assert not units[5].problems

    rep = {
        "traced": False, "setup_s": 1.0, "wall_s": 1.0, "rows": 10,
        "unit_s": {unit.name: 0.5 for unit in units}, "units": len(units), "failed": 5,
        "problems": ["forced"], "digest": "0" * 64, "peak_rss_mb": 1.0,
        "memo_start": 0, "memo_end": 0,
    }
    specs = run.load_metric_specs()
    result, _ = run.summarize([rep], False, specs)
    assert result["correct"] is False
    assert result["failed"] == 5 and result["attempted"] == len(units)
    crashed, _ = run.summarize([{"traced": False, "crashed": "exit 1"}], False, specs)
    assert crashed["correct"] is False and crashed["failed"] == crashed["attempted"] == 1
    json.dumps(crashed, allow_nan=False)


def test_traced_run_leaves_no_class_patched():
    tracer = layertrace.Tracer()
    targets = layertrace.program_targets(tracer)
    before = {(cls, name): cls.__dict__.get(name) for cls, name, _, _ in targets}
    plain = workloads.run_workload("exact-rollback", 1, "tiny")
    tracer.install(targets)
    try:
        assert any(
            getattr(cls.__dict__.get(name), layertrace.MARK, False)
            for cls, name in before
        )
        traced = workloads.run_workload("exact-rollback", 1, "tiny", tracer.span)
    finally:
        tracer.uninstall()
    for (cls, name), original in before.items():
        assert cls.__dict__.get(name) is original, f"{cls.__name__}.{name}"
        assert not getattr(getattr(cls, name), layertrace.MARK, False)
    assert workloads.results_digest(traced.units) == workloads.results_digest(plain.units)
    assert tracer.counts["evaluation.rollbacks"] > 0
