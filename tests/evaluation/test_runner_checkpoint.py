"""Mid-run checkpoint/resume of :class:`PrequentialRunner`.

The crash model: the process dies the instant after a checkpoint write — the
worst-case point for resume correctness, since everything after the write is
lost.  We simulate it by making :meth:`RunnerCheckpoint.save` raise *after*
persisting its Nth cut, then rerun the identical configuration against the
surviving file.  The resumed run must be bit-identical — detections, blamed
classes, every windowed metric, every snapshot — to an uninterrupted run, in
all three execution modes, with and without a detector.

Also pinned: a checkpoint recorded under a different run configuration, one
holding a component snapshot of another version, or a torn/corrupt file, is
*ignored* (fresh start, same results) rather than half-applied.
"""

from __future__ import annotations

import json

import pytest

from repro.core.snapshot import decode_state, snapshot_matches
from repro.evaluation.checkpoint import RunnerCheckpoint
from repro.evaluation.experiment import default_classifier_factory
from repro.evaluation.prequential import PrequentialRunner
from repro.protocol.registry import build_detector
from repro.streams.scenarios import make_artificial_stream
from repro.streams.schedule import ScheduledStream

N_INSTANCES = 1_500
CHUNK = 128


class _Killed(RuntimeError):
    """Stands in for SIGKILL right after a checkpoint write."""


def _make_stream():
    return make_artificial_stream("rbf", n_classes=3, n_instances=N_INSTANCES, seed=9)


def _make_runner(mode: str, pretrain_size: int) -> PrequentialRunner:
    chunked = {
        "instance": dict(chunk_size=None),
        "chunked": dict(chunk_size=CHUNK),
        "batch": dict(chunk_size=CHUNK, batch_mode=True),
    }[mode]
    return PrequentialRunner(
        classifier_factory=default_classifier_factory,
        window_size=500,
        pretrain_size=pretrain_size,
        rebuild_buffer=100,
        snapshot_every=250,
        **chunked,
    )


def _run(mode: str, detector_name: "str | None", pretrain_size=100, **kwargs):
    runner = _make_runner(mode, pretrain_size)
    stream = _make_stream()
    detector = (
        None
        if detector_name is None
        else build_detector(detector_name, stream.stream.n_features, 3)
    )
    return runner.run(
        stream, detector, n_instances=N_INSTANCES, detector_name="d", **kwargs
    )


def _assert_identical(resumed, reference) -> None:
    assert resumed.detections == reference.detections
    assert resumed.detected_classes == reference.detected_classes
    assert resumed.pmauc == reference.pmauc
    assert resumed.pmgm == reference.pmgm
    assert resumed.accuracy == reference.accuracy
    assert resumed.kappa == reference.kappa
    assert resumed.n_instances == reference.n_instances
    assert [
        (s.position, s.pmauc, s.pmgm, s.accuracy, s.kappa)
        for s in resumed.snapshots
    ] == [
        (s.position, s.pmauc, s.pmgm, s.accuracy, s.kappa)
        for s in reference.snapshots
    ]


def _kill_after_save(monkeypatch, n_saves: int, path, mode, detector_name, **kwargs):
    """Run with checkpoints to ``path`` and "kill" it after ``n_saves`` writes."""
    real_save = RunnerCheckpoint.save
    saves = {"count": 0}

    def dying_save(self, target):
        real_save(self, target)
        saves["count"] += 1
        if saves["count"] == n_saves:
            raise _Killed()

    monkeypatch.setattr(RunnerCheckpoint, "save", dying_save)
    with pytest.raises(_Killed):
        _run(
            mode, detector_name, checkpoint_path=path, checkpoint_every=CHUNK,
            **kwargs,
        )
    monkeypatch.undo()
    assert path.is_file()  # the cut written just before the "kill" survived


@pytest.mark.parametrize("mode", ["instance", "chunked", "batch"])
@pytest.mark.parametrize("detector_name", ["RBM-IM", "ADWIN", None])
def test_killed_run_resumes_bit_identical(tmp_path, monkeypatch, mode, detector_name):
    reference = _run(mode, detector_name)

    path = tmp_path / "checkpoint.json"
    _kill_after_save(monkeypatch, 3, path, mode, detector_name)
    killed_at = RunnerCheckpoint.load(path)
    assert killed_at is not None
    assert 0 < killed_at.produced < N_INSTANCES  # genuinely mid-run

    resumed = _run(mode, detector_name, checkpoint_path=path, checkpoint_every=CHUNK)
    _assert_identical(resumed, reference)


@pytest.mark.parametrize("mode", ["chunked", "batch"])
def test_resume_from_a_cut_at_the_pretrain_boundary(tmp_path, monkeypatch, mode):
    """The cut lands after the last pretrain row but before the warm-start,
    which fires in the resumed run (RBM-IM's warm-start trains its RBM)."""
    reference = _run(mode, "RBM-IM", pretrain_size=CHUNK)

    path = tmp_path / "checkpoint.json"
    _kill_after_save(monkeypatch, 1, path, mode, "RBM-IM", pretrain_size=CHUNK)
    killed_at = RunnerCheckpoint.load(path)
    assert killed_at.produced == CHUNK
    assert decode_state(killed_at.progress)["warm_started"] is False

    resumed = _run(
        mode, "RBM-IM", pretrain_size=CHUNK, checkpoint_path=path,
        checkpoint_every=CHUNK,
    )
    _assert_identical(resumed, reference)


def test_checkpointing_itself_changes_nothing(tmp_path):
    """A run that merely *writes* checkpoints equals one that never does."""
    reference = _run("chunked", "RBM-IM")
    observed = _run(
        "chunked",
        "RBM-IM",
        checkpoint_path=tmp_path / "checkpoint.json",
        checkpoint_every=CHUNK,
    )
    _assert_identical(observed, reference)


def test_mismatched_checkpoint_is_ignored(tmp_path, monkeypatch):
    """A checkpoint from a different run configuration must not be applied."""
    path = tmp_path / "checkpoint.json"
    _kill_after_save(monkeypatch, 1, path, "chunked", "DDM")

    # Same path, different detector: the checkpoint's meta does not match,
    # so the run starts fresh and equals the uncheckpointed reference.
    reference = _run("chunked", "ADWIN")
    observed = _run("chunked", "ADWIN", checkpoint_path=path, checkpoint_every=CHUNK)
    _assert_identical(observed, reference)


def test_stale_component_version_is_ignored(tmp_path, monkeypatch):
    """A checkpoint whose evaluator snapshot has another ``SNAPSHOT_VERSION``
    (written before a state-layout change) is never applied: the run starts
    fresh instead of failing in ``restore``."""
    path = tmp_path / "checkpoint.json"
    _kill_after_save(monkeypatch, 1, path, "chunked", "DDM")
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["evaluator"]["version"] -= 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_resume_starts_fresh(monkeypatch, path, "DDM")


def _nested_snapshots(value, kind):
    """Every ``kind`` snapshot nested (``__snap__``-tagged) in encoded state."""
    if isinstance(value, dict):
        children = list(value.values())
        nested = value.get("__snap__")
        hits = [nested] if isinstance(nested, dict) and nested["kind"] == kind else []
    elif isinstance(value, list):
        children, hits = value, []
    else:
        return []
    return hits + [hit for child in children for hit in _nested_snapshots(child, kind)]


def test_stale_nested_component_version_is_ignored(tmp_path, monkeypatch):
    """A detector snapshot whose *nested* components carry another version
    (RBM-IM's per-class ``TrendTracker``s) is ignored before the stream,
    classifier or evaluator is restored, instead of failing half-applied."""
    path = tmp_path / "checkpoint.json"
    _kill_after_save(monkeypatch, 1, path, "chunked", "RBM-IM")
    payload = json.loads(path.read_text(encoding="utf-8"))
    trackers = _nested_snapshots(payload["detector"], "TrendTracker")
    assert len(trackers) == 3  # one per class
    for tracker in trackers:
        tracker["version"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_resume_starts_fresh(monkeypatch, path, "RBM-IM")


def test_stale_source_version_in_a_sampler_origin_is_ignored(tmp_path, monkeypatch):
    """Each class-conditional sampler stores its source's snapshot from
    before its current block was drawn.  A checkpoint whose stored source
    carries another version is refused before anything is restored."""
    path = tmp_path / "checkpoint.json"
    _kill_after_save(monkeypatch, 1, path, "chunked", "DDM")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert snapshot_matches(payload["stream"], ScheduledStream)
    samplers = _nested_snapshots(payload["stream"], "ClassConditionalSampler")
    assert samplers
    for sampler in samplers:
        sampler["state"]["origin"]["__snap__"]["version"] = 99
    assert not snapshot_matches(payload["stream"], ScheduledStream)
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_resume_starts_fresh(monkeypatch, path, "DDM")


def test_rbmim_checkpoint_in_the_old_config_layout_is_ignored(tmp_path, monkeypatch):
    """An RBM-IM snapshot from before ``RBMIMConfig`` lost ``granger_lags``
    and ``require_error_increase`` carries version 1.  Restoring its config
    would raise ``TypeError`` after the stream, classifier and evaluator were
    restored, so the run must ignore it and start from row 0."""
    path = tmp_path / "checkpoint.json"
    _kill_after_save(monkeypatch, 1, path, "chunked", "RBM-IM")
    payload = json.loads(path.read_text(encoding="utf-8"))
    detector = payload["detector"]
    detector["version"] = 1
    config = detector["state"]["_cfg"]["__dc__"]
    assert config["cls"] == "RBMIMConfig"
    config["fields"].update(granger_lags=1, require_error_increase=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_resume_starts_fresh(monkeypatch, path, "RBM-IM")


def _assert_resume_starts_fresh(monkeypatch, path, detector_name):
    """A run handed the checkpoint at ``path`` never applies it and equals
    an uncheckpointed run."""
    applied = []
    real_apply = RunnerCheckpoint.apply

    def recording_apply(self, *args):
        applied.append(self.produced)
        return real_apply(self, *args)

    monkeypatch.setattr(RunnerCheckpoint, "apply", recording_apply)
    reference = _run("chunked", detector_name)
    observed = _run(
        "chunked", detector_name, checkpoint_path=path, checkpoint_every=CHUNK
    )
    _assert_identical(observed, reference)
    assert applied == []


def test_corrupt_checkpoint_is_ignored(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text('{"kind": "RunnerCheckpoint", "version":', encoding="utf-8")
    reference = _run("chunked", "DDM")
    observed = _run("chunked", "DDM", checkpoint_path=path, checkpoint_every=CHUNK)
    _assert_identical(observed, reference)


def test_checkpoints_land_on_chunk_boundaries(tmp_path, monkeypatch):
    produced_at_save = []
    real_save = RunnerCheckpoint.save

    def recording_save(self, target):
        produced_at_save.append(self.produced)
        real_save(self, target)

    monkeypatch.setattr(RunnerCheckpoint, "save", recording_save)
    _run(
        "batch",
        "DDM",
        checkpoint_path=tmp_path / "checkpoint.json",
        checkpoint_every=CHUNK,
    )
    assert produced_at_save, "no checkpoint was ever written"
    assert all(produced % CHUNK == 0 for produced in produced_at_save)
    assert produced_at_save == sorted(set(produced_at_save))
