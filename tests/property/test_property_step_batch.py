"""Property test: ``step_batch`` is chunk-exact for every registry detector.

For random error/probability sequences and *any* split of the stream into
chunks (including size-1 and size-``n`` chunks), the positions flagged by
``step_batch`` — and the recorded detections, blamed classes, observation
count, and final drift/warning state — must be identical to stepping the
same stream one instance at a time.  This is the contract the batch
prequential mode and the golden harness rely on; Hypothesis hunts for
chunkings and error patterns that break a hook's segment bookkeeping.

Every registry detector runs at its registry setting, and the six sum/bound
detectors also at the drift-heavy settings of ``tests/drift_heavy.py``, under
which RDDM prunes and rebuilds its stored-error log within 500 rows.  The
error-rate detectors batch through ``ErrorRateDetector``'s hook, which feeds
the 0/1 errors to their one update rule, ``add_element``; the per-row default
hook steps DDM-OCI.  Three toy subclasses of the family base classes, which
implement only their scalar method, cover both hooks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drift_heavy import detector_builders
from repro.detectors.base import (
    ClassConditionalDetector,
    ErrorRateDetector,
    InstanceDetector,
)
from repro.protocol.registry import DETECTOR_NAMES, build_detector

N_CLASSES = 4
N_FEATURES = 5
DETECTORS = [name for name in DETECTOR_NAMES if name != "none"]
#: RBM-IM trains an RBM per mini-batch, so its property run uses fewer and
#: shorter examples than the cheap error-rate detectors.
MAX_EXAMPLES = {"RBM-IM": 10}


class _ErrorStreak(ErrorRateDetector):
    """Warns on an error and drifts on every further error in a row."""

    def __init__(self) -> None:
        super().__init__()
        self._streak = 0

    def add_element(self, value: float) -> None:
        self._streak = self._streak + 1 if value else 0
        if self._streak >= 2:
            self._in_drift = True
        elif self._streak == 1:
            self._in_warning = True


class _ClassMisses(ClassConditionalDetector):
    """Blames a class at every third miss on it, warning one miss earlier."""

    def __init__(self) -> None:
        super().__init__(N_CLASSES)
        self._misses = [0] * N_CLASSES

    def add_result(self, y_true: int, y_pred: int) -> None:
        if y_true == y_pred:
            return
        self._misses[y_true] += 1
        if self._misses[y_true] % 3 == 0:
            self._in_drift = True
            self._drifted_classes = {y_true}
        elif self._misses[y_true] % 3 == 2:
            self._in_warning = True


class _FeatureSpike(InstanceDetector):
    """Blames the row's class when its first feature exceeds 0.7."""

    def __init__(self) -> None:
        super().__init__(N_FEATURES, N_CLASSES)

    def add_instance(self, x, y: int) -> None:
        if x[0] > 0.7:
            self._in_drift = True
            self._drifted_classes = {y}
        elif x[0] > 0.5:
            self._in_warning = True


#: Detector builders by test id (registry and drift-heavy settings, and the
#: toys).
BUILDERS = {
    **detector_builders(DETECTORS, N_FEATURES, N_CLASSES),
    "toy-error-streak": _ErrorStreak,
    "toy-class-misses": _ClassMisses,
    "toy-feature-spike": _FeatureSpike,
}


@st.composite
def error_streams(draw):
    """A piecewise-Bernoulli error stream plus a chunking of its length."""
    n = draw(st.integers(min_value=1, max_value=500))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    # Piecewise-constant error probabilities create drift-like jumps.
    n_pieces = draw(st.integers(min_value=1, max_value=4))
    probabilities = [
        draw(st.floats(min_value=0.0, max_value=0.9)) for _ in range(n_pieces)
    ]
    chunking = draw(
        st.one_of(
            st.just([1] * n),  # size-1 chunks
            st.just([n]),  # one size-n chunk
            st.lists(st.integers(min_value=1, max_value=n), min_size=1),
        )
    )
    return n, seed, probabilities, chunking


def _materialise(n, seed, probabilities, chunking):
    rng = np.random.default_rng(seed)
    piece = (n + len(probabilities) - 1) // len(probabilities)
    error_probability = np.repeat(probabilities, piece)[:n]
    features = rng.random((n, N_FEATURES))
    labels = rng.integers(0, N_CLASSES, n)
    is_error = rng.random(n) < error_probability
    offsets = rng.integers(1, N_CLASSES, n)
    predictions = np.where(is_error, (labels + offsets) % N_CLASSES, labels)

    sizes = []
    remaining = n
    for size in chunking:
        take = min(size, remaining)
        if take <= 0:
            break
        sizes.append(take)
        remaining -= take
    if remaining:
        sizes.append(remaining)
    return features, labels.astype(np.int64), predictions.astype(np.int64), sizes


def _assert_chunk_exact(build, features, labels, predictions, sizes):
    n = labels.shape[0]
    loop_detector = build()
    batch_detector = build()

    loop_flags = np.array(
        [
            loop_detector.step(features[i], int(labels[i]), int(predictions[i]))
            for i in range(n)
        ],
        dtype=bool,
    )
    batch_flags = []
    start = 0
    for size in sizes:
        batch_flags.append(
            batch_detector.step_batch(
                features[start : start + size],
                labels[start : start + size],
                predictions[start : start + size],
            )
        )
        start += size

    np.testing.assert_array_equal(loop_flags, np.concatenate(batch_flags))
    assert loop_detector.detections == batch_detector.detections
    assert loop_detector.detection_classes == batch_detector.detection_classes
    assert loop_detector.n_observations == batch_detector.n_observations
    assert loop_detector.in_drift == batch_detector.in_drift
    assert loop_detector.in_warning == batch_detector.in_warning
    assert loop_detector.drifted_classes == batch_detector.drifted_classes
    return batch_detector


@pytest.mark.parametrize("case", list(BUILDERS))
def test_step_batch_matches_step_loop(case: str):
    @settings(max_examples=MAX_EXAMPLES.get(case, 25), deadline=None)
    @given(stream=error_streams())
    def run(stream):
        _assert_chunk_exact(BUILDERS[case], *_materialise(*stream))

    run()


def test_error_rate_hook_drifts_on_consecutive_rows_and_chunk_ends():
    """Errors on rows 3-6 and 9-10 drift on rows 4, 5, 6 and 10; chunks of
    6, 5 and 1 rows end on drifting rows 5 and 10."""
    labels = np.zeros(12, dtype=np.int64)
    predictions = labels.copy()
    predictions[[3, 4, 5, 6, 9, 10]] = 1
    features = np.zeros((12, N_FEATURES))
    detector = _assert_chunk_exact(
        _ErrorStreak, features, labels, predictions, [6, 5, 1]
    )
    assert detector.detections == [5, 6, 7, 11]


@settings(max_examples=10, deadline=None)
@given(stream=error_streams())
def test_rbm_im_batched_path_bit_identical(stream):
    """The vectorized RBM-IM hot path is bit-exact, not just flag-exact.

    Beyond the flag/detection parity of the generic property above, the
    learned RBM parameters and the per-class reconstruction-error scores
    after any chunking must equal the per-instance run bit for bit — the
    minibatch CD-k matrix ops, packed reconstruction scoring, and block
    buffer fills must not reorder a single float operation.
    """
    features, labels, predictions, sizes = _materialise(*stream)
    n = labels.shape[0]
    loop_detector = build_detector("RBM-IM", N_FEATURES, N_CLASSES)
    batch_detector = build_detector("RBM-IM", N_FEATURES, N_CLASSES)

    for i in range(n):
        loop_detector.step(features[i], int(labels[i]), int(predictions[i]))
    start = 0
    for size in sizes:
        batch_detector.step_batch(
            features[start : start + size],
            labels[start : start + size],
            predictions[start : start + size],
        )
        start += size

    loop_weights = loop_detector.rbm.weights
    batch_weights = batch_detector.rbm.weights
    assert loop_weights.keys() == batch_weights.keys()
    for key in loop_weights:
        np.testing.assert_array_equal(loop_weights[key], batch_weights[key])
    np.testing.assert_array_equal(
        loop_detector.last_per_class_errors, batch_detector.last_per_class_errors
    )
    assert loop_detector.batches_processed == batch_detector.batches_processed
    assert loop_detector.detections == batch_detector.detections
    assert loop_detector.detection_classes == batch_detector.detection_classes
