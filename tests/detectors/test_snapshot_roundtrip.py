"""Snapshot/restore round-trips for every registry detector.

The versioned snapshot contract (:mod:`repro.core.snapshot`) promises that a
detector restored from ``snapshot()`` — after a strict-JSON round-trip, i.e.
exactly what crash-resume reads back from disk — continues **bit-identically**
to the uninterrupted instance: same flags, same detection positions, same
blamed classes.  This suite pins that promise at *every chunk boundary* of a
drifting stream, for the full zoo, on both the cloning (``from_snapshot``)
and the restore-in-place paths.  The chunk-exact rollback inside
``PrequentialRunner._advance_exact_segment`` and the mid-cell
``RunnerCheckpoint`` both ride on this contract.  The six sum/bound
detectors also run at the drift-heavy settings of ``tests/drift_heavy.py``,
so a snapshot carries state their registry settings never reach within the
stream, such as RDDM's pruned stored-error log.
"""

from __future__ import annotations

import numpy as np
import pytest

from drift_heavy import detector_builders
from repro.core.jsonio import dumps_strict, loads_strict
from repro.detectors.base import DriftDetector
from repro.protocol.registry import DETECTOR_NAMES, build_detector

N_CLASSES = 4
N_FEATURES = 6
N_INSTANCES = 1_200
CHUNK = 150

DETECTORS = [name for name in DETECTOR_NAMES if name != "none"]
#: Detector builders by test id (registry and drift-heavy settings).
BUILDERS = detector_builders(DETECTORS, N_FEATURES, N_CLASSES)


def _drifting_inputs(seed: int):
    """A mid-stream drift in both the error rate and the feature distribution.

    Same shape as the reset-replay harness: error-stream detectors see the
    error rate jump from 10% to 55%, instance-based detectors (RBM-IM) see
    the feature distribution collapse into a narrow band at the same point.
    """
    rng = np.random.default_rng(seed)
    half = N_INSTANCES // 2
    features = rng.random((N_INSTANCES, N_FEATURES))
    features[half:] = 0.85 + 0.1 * features[half:]
    labels = rng.integers(0, N_CLASSES, N_INSTANCES)
    error_probability = np.where(np.arange(N_INSTANCES) < half, 0.1, 0.55)
    is_error = rng.random(N_INSTANCES) < error_probability
    offsets = rng.integers(1, N_CLASSES, N_INSTANCES)
    predictions = np.where(is_error, (labels + offsets) % N_CLASSES, labels)
    return features, labels.astype(np.int64), predictions.astype(np.int64)


def _json_roundtrip(snapshot: dict) -> dict:
    """What a persisted checkpoint actually reads back: strict JSON."""
    return loads_strict(dumps_strict(snapshot))


@pytest.mark.parametrize("name", list(BUILDERS))
def test_snapshot_clone_at_every_chunk_boundary(name: str) -> None:
    """A ``from_snapshot`` clone taken at any boundary finishes identically."""
    features, labels, predictions = _drifting_inputs(seed=505)

    reference = BUILDERS[name]()
    ref_flags = reference.step_batch(features, labels, predictions)

    live = BUILDERS[name]()
    for start in range(0, N_INSTANCES, CHUNK):
        clone = DriftDetector.from_snapshot(_json_roundtrip(live.snapshot()))
        assert type(clone) is type(live)
        tail_flags = clone.step_batch(
            features[start:], labels[start:], predictions[start:]
        )
        np.testing.assert_array_equal(
            tail_flags,
            ref_flags[start:],
            err_msg=f"{name}: clone from boundary {start} diverged",
        )
        assert clone.detections == reference.detections
        assert clone.detection_classes == reference.detection_classes
        end = start + CHUNK
        live.step_batch(
            features[start:end], labels[start:end], predictions[start:end]
        )
    assert live.detections == reference.detections
    # Sanity: the schedule must actually fire most detectors, or the tail
    # comparison above would pass vacuously.
    if name not in ("PerfSim",):
        assert reference.detections, f"{name} never fired on the stream"


@pytest.mark.parametrize("name", list(BUILDERS))
def test_snapshot_restores_in_place_over_dirty_state(name: str) -> None:
    """``restore`` overwrites a detector mid-flight on *different* data."""
    features, labels, predictions = _drifting_inputs(seed=606)
    half = N_INSTANCES // 2

    reference = BUILDERS[name]()
    ref_flags = reference.step_batch(features, labels, predictions)

    source = BUILDERS[name]()
    source.step_batch(features[:half], labels[:half], predictions[:half])
    snapshot = _json_roundtrip(source.snapshot())

    # A detector polluted by an unrelated stream must come back bit-exact.
    dirty = BUILDERS[name]()
    other = _drifting_inputs(seed=707)
    dirty.step_batch(*other)
    dirty.restore(snapshot)

    tail_flags = dirty.step_batch(
        features[half:], labels[half:], predictions[half:]
    )
    np.testing.assert_array_equal(tail_flags, ref_flags[half:])
    assert dirty.detections == reference.detections
    assert dirty.detection_classes == reference.detection_classes
    assert dirty.n_observations == reference.n_observations


@pytest.mark.parametrize("name", DETECTORS)
def test_snapshot_version_and_kind_are_enforced(name: str) -> None:
    from repro.core.snapshot import SnapshotError

    detector = build_detector(name, N_FEATURES, N_CLASSES)
    snapshot = detector.snapshot()
    assert snapshot["kind"] == type(detector).__name__
    assert snapshot["version"] == type(detector).SNAPSHOT_VERSION

    stale = dict(snapshot, version=snapshot["version"] + 1)
    with pytest.raises(SnapshotError):
        detector.restore(stale)
    wrong_kind = dict(snapshot, kind="SomethingElse")
    with pytest.raises(SnapshotError):
        detector.restore(wrong_kind)
