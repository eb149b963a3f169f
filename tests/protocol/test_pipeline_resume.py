"""Resumability of the protocol pipeline: completed cells are never re-run.

These tests exercise the acceptance path of the protocol subsystem: a run
interrupted mid-way (simulated by an exception thrown from the progress
callback, after the finished cell was already persisted) is re-invoked and
completes by executing only the cells that have no stored record.
"""

from __future__ import annotations

import pytest

from repro.protocol.pipeline import ProtocolPipeline
from repro.protocol.sharded_store import ShardedResultsStore
from repro.protocol.spec import ProtocolSpec
from repro.protocol.store import ResultsStore

#: Both ResultsStoreProtocol implementations; resume semantics are a store
#: contract, so the shared tests run against each.
STORE_KINDS = {"json": ResultsStore, "sharded": ShardedResultsStore}


def make_store(kind: str, root):
    return STORE_KINDS[kind](root)


def quick_spec() -> ProtocolSpec:
    spec = ProtocolSpec.quick()
    # Shrink further: resume semantics do not need long streams.
    spec.n_instances = 400
    spec.window_size = 100
    spec.pretrain_size = 50
    spec.drift_tolerance = 200
    spec.__post_init__()
    return spec


class _KillAfter:
    """Progress callback that raises once ``n`` cells have finished."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def __call__(self, cell_result) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt("simulated kill")


def test_interrupted_run_resumes_without_recomputing(tmp_path):
    spec = quick_spec()
    store = ResultsStore(tmp_path / "results")
    pipeline = ProtocolPipeline(spec, store)
    assert len(pipeline.pending()) == 2

    # First invocation dies after the first cell was persisted.
    with pytest.raises(KeyboardInterrupt):
        pipeline.run(backend="serial", progress=_KillAfter(1))

    status = pipeline.status()
    assert status.n_completed == 1
    assert status.n_pending == 1

    # Fingerprint the surviving record so recomputation would be visible.
    (done_key,) = [
        key for _, key in pipeline.cells() if store.get(key) is not None
    ]
    first_mtime = store.path_for(done_key).stat().st_mtime_ns
    first_record = store.get(done_key)

    # Second invocation completes the spec by running ONLY the missing cell.
    summary = pipeline.run(backend="serial")
    assert summary.n_skipped == 1
    assert summary.n_executed == 1
    assert summary.n_failed == 0
    assert done_key not in summary.executed_keys
    assert pipeline.status().done

    # The completed cell was not recomputed: same file, byte-identical record.
    assert store.path_for(done_key).stat().st_mtime_ns == first_mtime
    assert store.get(done_key) == first_record


@pytest.mark.parametrize("store_kind", sorted(STORE_KINDS))
def test_completed_run_is_fully_cached(tmp_path, store_kind):
    spec = quick_spec()
    pipeline = ProtocolPipeline(spec, make_store(store_kind, tmp_path / "results"))
    first = pipeline.run(backend="serial")
    assert first.n_executed == 2

    again = pipeline.run(backend="serial")
    assert again.n_executed == 0
    assert again.n_skipped == 2
    assert again.executed_keys == []


@pytest.mark.parametrize("store_kind", sorted(STORE_KINDS))
def test_changed_run_parameters_invalidate_the_cache(tmp_path, store_kind):
    store = make_store(store_kind, tmp_path / "results")
    spec = quick_spec()
    ProtocolPipeline(spec, store).run(backend="serial")

    longer = quick_spec()
    longer.n_instances = 500
    pipeline = ProtocolPipeline(longer, store)
    assert len(pipeline.pending()) == 2  # nothing reusable
    summary = pipeline.run(backend="serial")
    assert summary.n_executed == 2


def _tiny_classifier_factory(n_features: int, n_classes: int):
    from repro.classifiers.naive_bayes import GaussianNB

    return GaussianNB(n_features=n_features, n_classes=n_classes)


def test_changed_classifier_invalidates_the_cache(tmp_path):
    """Records computed with one classifier are never served to another."""
    spec = quick_spec()
    store = ResultsStore(tmp_path / "results")
    ProtocolPipeline(spec, store).run(backend="serial")

    swapped = ProtocolPipeline(
        spec, store, classifier_factory=_tiny_classifier_factory
    )
    assert len(swapped.pending()) == 2  # nothing reusable
    summary = swapped.run(backend="serial")
    assert summary.n_executed == 2
    label = "tests.protocol.test_pipeline_resume._tiny_classifier_factory"
    for record in swapped.completed_records():
        assert record["run_parameters"]["classifier"].endswith(
            "_tiny_classifier_factory"
        ), label
    # The default-classifier records are untouched and still resumable.
    assert ProtocolPipeline(spec, store).status().done


@pytest.mark.parametrize("store_kind", sorted(STORE_KINDS))
def test_failed_cells_are_retried_by_default(tmp_path, store_kind):
    spec = quick_spec()
    store = make_store(store_kind, tmp_path / "results")
    pipeline = ProtocolPipeline(spec, store)
    pipeline.run(backend="serial")

    # Forge one record into a failure, as a crashed worker would leave it.
    _, key = pipeline.cells()[0]
    record = store.get(key)
    record["error"] = "Traceback (most recent call last): boom"
    store.put(key, record)

    assert len(pipeline.pending(retry_failed=False)) == 0
    assert len(pipeline.pending(retry_failed=True)) == 1

    summary = pipeline.run(backend="serial")
    assert summary.n_executed == 1
    assert store.get(key)["error"] is None


@pytest.mark.parametrize("store_kind", sorted(STORE_KINDS))
def test_max_cells_caps_one_invocation(tmp_path, store_kind):
    spec = quick_spec()
    pipeline = ProtocolPipeline(spec, make_store(store_kind, tmp_path / "results"))
    summary = pipeline.run(backend="serial", max_cells=1)
    assert summary.n_executed == 1
    assert pipeline.status().n_completed == 1

    summary = pipeline.run(backend="serial")
    assert summary.n_executed == 1
    assert pipeline.status().done


@pytest.mark.parametrize("store_kind", sorted(STORE_KINDS))
def test_checkpoint_every_below_one_is_refused_up_front(tmp_path, store_kind):
    """The runner would refuse it inside every cell, leaving one failure
    record per cell; the pipeline refuses it before storing anything."""
    pipeline = ProtocolPipeline(
        quick_spec(), make_store(store_kind, tmp_path / "results")
    )
    with pytest.raises(ValueError, match="checkpoint_every"):
        pipeline.run(backend="serial", checkpoint_every=0)
    assert len(pipeline.store) == 0
    assert pipeline.status().n_pending == 2


@pytest.mark.parametrize("store_kind", sorted(STORE_KINDS))
def test_records_carry_protocol_metadata(tmp_path, store_kind):
    spec = quick_spec()
    pipeline = ProtocolPipeline(spec, make_store(store_kind, tmp_path / "results"))
    pipeline.run(backend="serial")
    records = pipeline.completed_records()
    assert len(records) == 2
    for record in records:
        assert record["benchmark"] == "scenario1-Rbf5"
        assert record["scenario"] == 1
        assert record["family"] == "rbf"
        assert record["spec_name"] == spec.name
        assert record["run_parameters"] == spec.run_parameters()
        assert record["detector"] in spec.detectors
        assert "pmauc" in record and "detections" in record
        assert record["drift_report"]["n_true_drifts"] == 1
    # The store also holds a provenance copy of the spec.
    spec_copy = (pipeline.store.root / "spec.json").read_text(encoding="utf-8")
    assert ProtocolSpec.from_json(spec_copy) == spec


def test_table_folds_seeds(tmp_path):
    spec = quick_spec()
    spec.seeds = (0, 1)
    spec.__post_init__()
    pipeline = ProtocolPipeline(spec, ResultsStore(tmp_path / "results"))
    pipeline.run(backend="serial")
    table = pipeline.table("pmauc")
    assert table.datasets == ["scenario1-Rbf5"]
    assert set(table.methods) == set(spec.detectors)
