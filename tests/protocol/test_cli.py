"""End-to-end tests of the ``python -m repro.protocol`` command line.

Includes the acceptance scenario: a run killed mid-flight (SIGKILL, so
nothing can clean up) is re-invoked and completes by re-running only the
unfinished cells.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.protocol", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def test_run_status_report_round_trip(tmp_path):
    store = tmp_path / "results"
    out = run_cli(
        "run", "--preset", "quick", "--store", str(store), "--backend", "serial"
    )
    assert "2 executed" in out.stdout
    assert "2 completed" in out.stdout

    status = run_cli("status", "--preset", "quick", "--store", str(store))
    assert "2 completed, 0 failed, 0 pending" in status.stdout

    report = run_cli(
        "report", "--preset", "quick", "--store", str(store), "--control", "RBM-IM"
    )
    assert "== pmauc ==" in report.stdout
    assert "scenario1-Rbf5" in report.stdout
    assert "ranks" in report.stdout


def test_rerun_uses_cache(tmp_path):
    store = tmp_path / "results"
    run_cli("run", "--preset", "quick", "--store", str(store), "--backend", "serial")
    again = run_cli(
        "run", "--preset", "quick", "--store", str(store), "--backend", "serial"
    )
    assert "2 cached, 0 executed" in again.stdout


def test_spec_subcommand_emits_editable_json(tmp_path):
    out = run_cli("spec", "--preset", "quick")
    spec = json.loads(out.stdout)
    assert spec["name"] == "quick"

    # The emitted JSON is directly usable as --spec input.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(out.stdout, encoding="utf-8")
    store = tmp_path / "results"
    run_cli(
        "run",
        "--spec",
        str(spec_path),
        "--store",
        str(store),
        "--backend",
        "serial",
        "--max-cells",
        "1",
    )
    status = run_cli(
        "status", "--spec", str(spec_path), "--store", str(store), check=False
    )
    assert "1 completed, 0 failed, 1 pending" in status.stdout
    assert status.returncode == 2  # "not done yet" exit code


def test_missing_spec_selection_is_an_error(tmp_path):
    """No silent default: forgetting --preset must not start the paper run."""
    out = run_cli("run", "--store", str(tmp_path / "results"), check=False)
    assert out.returncode != 0
    assert "pass --spec" in out.stderr
    assert not (tmp_path / "results").exists()


def test_invalid_chunk_size_override_stores_nothing(tmp_path):
    store = tmp_path / "results"
    out = run_cli(
        "run", "--preset", "quick", "--store", str(store),
        "--backend", "serial", "--chunk-size", "0", check=False,
    )
    assert out.returncode != 0
    assert "chunk_size must be >= 1" in out.stderr
    assert not store.exists()  # refused before the store was opened


def test_batch_mode_override_without_chunk_size_stores_nothing(tmp_path):
    spec = json.loads(run_cli("spec", "--preset", "quick").stdout)
    spec["chunk_size"] = None
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    store = tmp_path / "results"
    out = run_cli(
        "run", "--spec", str(spec_path), "--store", str(store),
        "--backend", "serial", "--batch-mode", check=False,
    )
    assert out.returncode == 1
    assert "batch_mode requires chunk_size" in out.stderr
    assert not store.exists()  # refused before the store was opened


def test_checkpoint_every_zero_stores_no_record(tmp_path):
    store = tmp_path / "results"
    out = run_cli(
        "run", "--preset", "quick", "--store", str(store),
        "--backend", "serial", "--checkpoint-every", "0", check=False,
    )
    assert out.returncode != 0
    assert "checkpoint_every must be >= 1" in out.stderr
    assert not list(store.glob("*.json"))  # no cell record, no spec copy


def test_batch_mode_is_a_two_way_override(tmp_path):
    out = run_cli("run", "--help")
    assert "--no-batch-mode" in out.stdout


def test_execution_mode_overrides_shared_by_all_subcommands(tmp_path):
    """A store produced under --batch-mode is visible to status/report
    invoked with the same override (the flags are part of every cell key)."""
    store = tmp_path / "results"
    run_cli(
        "run", "--preset", "quick", "--store", str(store),
        "--backend", "serial", "--batch-mode",
    )
    status = run_cli(
        "status", "--preset", "quick", "--store", str(store), "--batch-mode"
    )
    assert "2 completed, 0 failed, 0 pending" in status.stdout
    report = run_cli(
        "report", "--preset", "quick", "--store", str(store), "--batch-mode"
    )
    assert "== pmauc ==" in report.stdout
    # Without the override the same store is (correctly) a different run.
    plain = run_cli(
        "status", "--preset", "quick", "--store", str(store), check=False
    )
    assert "0 completed, 0 failed, 2 pending" in plain.stdout


def test_status_on_empty_store_reports_all_pending(tmp_path):
    status = run_cli(
        "status",
        "--preset",
        "quick",
        "--store",
        str(tmp_path / "results"),
        check=False,
    )
    assert "0 completed, 0 failed, 2 pending" in status.stdout
    assert status.returncode == 2


def test_report_on_empty_store_fails_gracefully(tmp_path):
    report = run_cli(
        "report",
        "--preset",
        "quick",
        "--store",
        str(tmp_path / "results"),
        check=False,
    )
    assert report.returncode == 2
    assert "no completed cells" in report.stderr


def test_sharded_round_trip_compact_and_report_agree_with_json(tmp_path):
    """The same spec into both store formats: status and report agree, and
    compaction changes the layout, not the answers."""
    json_store = tmp_path / "json-results"
    sharded_store = tmp_path / "sharded-results"
    run_cli(
        "run", "--preset", "quick", "--store", str(json_store),
        "--backend", "serial",
    )
    out = run_cli(
        "run", "--preset", "quick", "--store", str(sharded_store),
        "--store-format", "sharded", "--backend", "serial",
    )
    assert "2 executed" in out.stdout
    assert (sharded_store / "segments").is_dir()
    assert not list(sharded_store.glob("*.json.json"))  # no per-cell files

    # --store-format auto recognises the layout from here on.
    status = run_cli("status", "--preset", "quick", "--store", str(sharded_store))
    assert "2 completed, 0 failed, 0 pending" in status.stdout

    compact = run_cli("compact", "--store", str(sharded_store))
    assert "compacted 2 records" in compact.stdout
    assert (sharded_store / "index.sqlite").is_file()
    assert not list((sharded_store / "segments").iterdir())

    status = run_cli("status", "--preset", "quick", "--store", str(sharded_store))
    assert "2 completed, 0 failed, 0 pending" in status.stdout

    json_report = run_cli("report", "--preset", "quick", "--store", str(json_store))
    sharded_report = run_cli(
        "report", "--preset", "quick", "--store", str(sharded_store)
    )
    assert sharded_report.stdout == json_report.stdout

    # A re-run on the compacted store is fully cached.
    again = run_cli(
        "run", "--preset", "quick", "--store", str(sharded_store),
        "--backend", "serial",
    )
    assert "2 cached, 0 executed" in again.stdout


def test_sharded_flag_refuses_existing_json_store(tmp_path):
    """--store-format sharded against a populated JSON store must refuse —
    and must NOT scaffold segments/ or index.sqlite, which would make auto
    treat the store as sharded and hide every existing record."""
    store = tmp_path / "results"
    run_cli("run", "--preset", "quick", "--store", str(store), "--backend", "serial")

    for command in ("status", "report", "compact"):
        args = [command]
        if command != "compact":
            args += ["--preset", "quick"]
        args += ["--store", str(store), "--store-format", "sharded"]
        out = run_cli(*args, check=False)
        assert out.returncode != 0, command
        assert "JSON store" in out.stderr, command
        assert not (store / "segments").exists(), command
        assert not (store / "index.sqlite").exists(), command

    # The store is unharmed: auto still sees every record.
    status = run_cli("status", "--preset", "quick", "--store", str(store))
    assert "2 completed, 0 failed, 0 pending" in status.stdout


def test_json_flag_refuses_existing_sharded_store(tmp_path):
    store = tmp_path / "results"
    run_cli(
        "run", "--preset", "quick", "--store", str(store),
        "--store-format", "sharded", "--backend", "serial",
    )
    out = run_cli(
        "status", "--preset", "quick", "--store", str(store),
        "--store-format", "json", check=False,
    )
    assert out.returncode != 0
    assert "sharded store" in out.stderr


def test_auto_prefers_json_records_over_empty_segments_dir(tmp_path):
    """A stray empty segments/ dir (damage from the old eager-mkdir bug)
    must not make auto hide an existing JSON store's records."""
    store = tmp_path / "results"
    run_cli("run", "--preset", "quick", "--store", str(store), "--backend", "serial")
    (store / "segments").mkdir()
    status = run_cli("status", "--preset", "quick", "--store", str(store))
    assert "2 completed, 0 failed, 0 pending" in status.stdout


def test_compact_refuses_non_sharded_store(tmp_path):
    store = tmp_path / "results"
    run_cli("run", "--preset", "quick", "--store", str(store), "--backend", "serial")
    out = run_cli("compact", "--store", str(store), check=False)
    assert out.returncode == 2
    assert "not a sharded store" in out.stderr


def test_run_help_documents_scaling_flags():
    out = run_cli("run", "--help")
    assert "--store-format" in out.stdout
    # argparse re-wraps help text, so compare whitespace-normalised.
    flattened = " ".join(out.stdout.split())
    assert "sharded" in flattened


def test_killed_run_resumes_by_skipping_completed_cells(tmp_path):
    """SIGKILL the CLI after the first record lands; re-invoke; verify resume."""
    store = tmp_path / "results"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.protocol",
            "run",
            "--preset",
            "quick",
            "--store",
            str(store),
            "--backend",
            "serial",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )

    def completed_records() -> list[Path]:
        return [
            path
            for path in store.glob("*.json")
            if path.name != "spec.json" and not path.name.startswith(".tmp-")
        ]

    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if completed_records():
                break
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        else:
            pytest.fail("no record appeared within the deadline")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    survivors = completed_records()
    if len(survivors) >= 2:
        pytest.skip("run finished before the kill landed; resume not observable")
    assert len(survivors) == 1
    fingerprint = {
        path.name: (path.stat().st_mtime_ns, path.read_bytes())
        for path in survivors
    }

    # Re-invoke: must complete by executing only the unfinished cell.
    out = run_cli(
        "run", "--preset", "quick", "--store", str(store), "--backend", "serial"
    )
    assert "1 cached, 1 executed" in out.stdout
    assert "2 completed, 0 failed, 0 pending" in out.stdout

    for name, (mtime, payload) in fingerprint.items():
        path = store / name
        assert path.stat().st_mtime_ns == mtime, f"{name} was recomputed"
        assert path.read_bytes() == payload


#: Record fields that legitimately differ between two executions of the
#: same cell (timing); everything else must match key-for-key.
_VOLATILE = ("wall_time", "detector_time", "classifier_time")


def _stable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE}


def test_killed_sharded_run_resumes_and_matches_json_store(tmp_path):
    """SIGKILL a --store-format sharded run mid-flight (possibly mid-append:
    the torn segment tail must read as absent, not corrupt the store);
    re-invoke; the recovered record set must equal a single-file-store run's
    key-for-key, modulo timing fields."""
    from repro.protocol.sharded_store import ShardedResultsStore

    store = tmp_path / "sharded-results"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.protocol", "run",
            "--preset", "quick",
            "--store", str(store),
            "--store-format", "sharded",
            "--backend", "serial",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )

    def completed_keys() -> list[str]:
        if not store.is_dir():
            return []
        return ShardedResultsStore(store).keys()

    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if completed_keys():
                break
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        else:
            pytest.fail("no record appeared within the deadline")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    survivors = completed_keys()
    if len(survivors) >= 2:
        pytest.skip("run finished before the kill landed; resume not observable")
    assert len(survivors) == 1
    (done_key,) = survivors
    first_record = ShardedResultsStore(store).get(done_key)

    # Re-invoke (--store-format auto recognises the layout): only the
    # unfinished cell runs; the survivor is served from the store untouched.
    out = run_cli(
        "run", "--preset", "quick", "--store", str(store), "--backend", "serial"
    )
    assert "1 cached, 1 executed" in out.stdout
    assert "2 completed, 0 failed, 0 pending" in out.stdout
    assert ShardedResultsStore(store).get(done_key) == first_record

    # Key-for-key parity with the single-file store for the same run.
    json_store_dir = tmp_path / "json-results"
    run_cli(
        "run", "--preset", "quick", "--store", str(json_store_dir),
        "--backend", "serial",
    )
    json_records = {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in json_store_dir.glob("*.json")
        if path.name != "spec.json"
    }
    recovered = ShardedResultsStore(store)
    assert sorted(recovered.keys()) == sorted(json_records)
    for key, record in json_records.items():
        assert _stable(recovered.get(key)) == _stable(record)
