"""Reset-then-replay determinism and instance isolation for every detector.

``DriftDetector.reset()`` must return a detector to a state indistinguishable
from a freshly constructed instance: after driving a detector through a
drifting stream (so it fires and accumulates concept state, windows, and —
for RBM-IM — trained weights), a reset followed by a replay of a second
stream must produce exactly the detections a brand-new detector produces on
that stream.  Likewise two live instances must share no state, which running
many protocol cells in one process relies on.  The six sum/bound detectors
also run at the drift-heavy settings of ``tests/drift_heavy.py``, so both
contracts are checked from states their registry settings never reach within
the stream, such as just after an RDDM prune-and-rebuild.
"""

from __future__ import annotations

import numpy as np
import pytest

from drift_heavy import detector_builders
from repro.protocol.registry import DETECTOR_NAMES

N_CLASSES = 4
N_FEATURES = 6
N_INSTANCES = 1_200

DETECTORS = [name for name in DETECTOR_NAMES if name != "none"]
#: Detector builders by test id (registry and drift-heavy settings).
BUILDERS = detector_builders(DETECTORS, N_FEATURES, N_CLASSES)


def _drifting_inputs(seed: int):
    """A mid-stream drift in both the error rate and the feature distribution.

    Error-stream detectors see the error rate jump from 10% to 55%;
    instance-based detectors (RBM-IM) see the feature distribution collapse
    into a narrow band at the same point.
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


def _replay(detector, inputs) -> list[int]:
    features, labels, predictions = inputs
    alarms = []
    for i in range(N_INSTANCES):
        if detector.step(features[i], int(labels[i]), int(predictions[i])):
            alarms.append(i)
    return alarms


@pytest.mark.parametrize("name", list(BUILDERS))
def test_reset_replay_matches_fresh_detector(name: str) -> None:
    first = _drifting_inputs(seed=101)
    second = _drifting_inputs(seed=202)

    used = BUILDERS[name]()
    dirty_alarms = _replay(used, first)
    assert used.n_observations == N_INSTANCES
    used.reset()

    assert used.n_observations == 0
    assert used.detections == []
    assert used.detection_classes == []
    assert not used.in_drift and not used.in_warning

    fresh = BUILDERS[name]()
    assert used.snapshot() == fresh.snapshot()
    replayed = _replay(used, second)
    expected = _replay(fresh, second)
    assert replayed == expected, (
        f"{name}: reset detector diverged from a fresh instance "
        f"(reset {replayed} vs fresh {expected}); stale state survived reset"
    )
    assert used.detections == fresh.detections
    assert used.detection_classes == fresh.detection_classes
    # Sanity: the drifting schedule actually exercised the detector at least
    # once across the two streams for most detectors; otherwise this test
    # would pass vacuously for a detector that never fires.
    if name not in ("PerfSim",):
        assert dirty_alarms or expected, f"{name} never fired on either stream"


@pytest.mark.parametrize("name", list(BUILDERS))
def test_reset_after_batch_replay_matches_fresh_batch(name: str) -> None:
    """The same contract holds on the step_batch path."""
    first = _drifting_inputs(seed=303)
    second = _drifting_inputs(seed=404)

    used = BUILDERS[name]()
    used.step_batch(*first)
    used.reset()

    fresh = BUILDERS[name]()
    flags_reset = used.step_batch(*second)
    flags_fresh = fresh.step_batch(*second)
    np.testing.assert_array_equal(flags_reset, flags_fresh)
    assert used.detections == fresh.detections


@pytest.mark.parametrize("name", list(BUILDERS))
def test_interleaved_instances_match_solo_runs(name: str) -> None:
    """Two instances stepped in alternating chunks match two solo runs."""
    streams = (_drifting_inputs(seed=505), _drifting_inputs(seed=606))
    solo = [BUILDERS[name]() for _ in streams]
    solo_flags = [
        detector.step_batch(*inputs) for detector, inputs in zip(solo, streams)
    ]

    # Uneven chunk sizes, so the two instances sit at different offsets.
    sizes = (100, 70)
    pair = [BUILDERS[name]() for _ in streams]
    pair_flags = ([], [])
    offsets = [0, 0]
    while min(offsets) < N_INSTANCES:
        for lane, size in enumerate(sizes):
            start = offsets[lane]
            if start < N_INSTANCES:
                rows = slice(start, start + size)
                pair_flags[lane].append(
                    pair[lane].step_batch(*(column[rows] for column in streams[lane]))
                )
                offsets[lane] = start + size

    for lane in range(2):
        np.testing.assert_array_equal(
            np.concatenate(pair_flags[lane]), solo_flags[lane]
        )
        assert pair[lane].detections == solo[lane].detections
        assert pair[lane].detection_classes == solo[lane].detection_classes
        assert pair[lane].n_observations == solo[lane].n_observations
