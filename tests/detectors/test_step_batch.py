"""Batch stepping of drift detectors.

``DriftDetector.step_batch`` drives every detector's segment hook and must be
exactly equivalent to the ``step`` loop; RBM-IM's native hook must produce
bit-identical detections (flags, positions, blamed classes) for any split of
the stream into batches.  A batch whose columns disagree on the row count,
and a row outside the detector's domain (a label outside ``[0, n_classes)``,
a feature row of the wrong width), are refused before any state changes, as
is a label or prediction that is not a whole number.
"""

import re
import warnings

import numpy as np
import pytest

from repro.core.detector import RBMIM, RBMIMConfig
from repro.detectors import ADWIN, DDM, DDM_OCI, EDDM, FHDDM, PerfSim, RDDM, WSTD
from repro.protocol.registry import DETECTOR_NAMES, build_detector
from repro.streams.generators import RandomRBFGenerator, SEAGenerator
from repro.streams.schedule import Schedule, ScheduledStream, Segment


@pytest.fixture(scope="module")
def drifting_data():
    """A stream with two sudden drifts plus a synthetic prediction stream."""
    def factory(concept):
        return RandomRBFGenerator(
            n_classes=4, n_features=8, n_centroids=12, concept=concept, seed=3
        )

    stream = ScheduledStream(
        factory,
        Schedule.of(
            Segment(length=1_500, concept=0),
            Segment(length=1_500, concept=6),
            Segment(length=1_500, concept=2),
        ),
        seed=0,
    )
    features, labels = stream.generate_batch(4_500)
    rng = np.random.default_rng(0)
    predictions = np.where(
        rng.random(labels.shape[0]) < 0.7, labels, rng.integers(0, 4, labels.shape[0])
    ).astype(np.int64)
    return features, labels, predictions


ERROR_DETECTOR_FACTORIES = [
    lambda: ADWIN(),
    lambda: DDM(),
    lambda: EDDM(),
    lambda: FHDDM(),
    lambda: RDDM(),
    lambda: WSTD(window_size=75),
    lambda: DDM_OCI(n_classes=4),
    lambda: PerfSim(n_classes=4, batch_size=250),
]


@pytest.mark.parametrize("factory", ERROR_DETECTOR_FACTORIES)
def test_default_adapter_matches_step_loop(factory, drifting_data):
    features, labels, predictions = drifting_data
    loop_detector = factory()
    batch_detector = factory()
    loop_flags = np.array(
        [
            loop_detector.step(features[i], int(labels[i]), int(predictions[i]))
            for i in range(labels.shape[0])
        ]
    )
    batch_flags = []
    for start in range(0, labels.shape[0], 333):
        batch_flags.append(
            batch_detector.step_batch(
                features[start : start + 333],
                labels[start : start + 333],
                predictions[start : start + 333],
            )
        )
    np.testing.assert_array_equal(loop_flags, np.concatenate(batch_flags))
    assert loop_detector.detections == batch_detector.detections
    assert loop_detector.n_observations == batch_detector.n_observations


class TestRBMIMNativeBatch:
    def _detector(self):
        return RBMIM(8, 4, RBMIMConfig(batch_size=25, seed=7))

    def test_bit_identical_to_instance_stepping(self, drifting_data):
        features, labels, predictions = drifting_data
        loop_detector = self._detector()
        batch_detector = self._detector()
        loop_flags = np.array(
            [
                loop_detector.step(features[i], int(labels[i]), int(predictions[i]))
                for i in range(labels.shape[0])
            ]
        )
        batch_flags = []
        # Deliberately misaligned split sizes relative to batch_size=25.
        start = 0
        for size in (7, 100, 1_003, 2_000, 10_000):
            batch_flags.append(
                batch_detector.step_batch(
                    features[start : start + size],
                    labels[start : start + size],
                    predictions[start : start + size],
                )
            )
            start += size
            if start >= labels.shape[0]:
                break
        np.testing.assert_array_equal(loop_flags, np.concatenate(batch_flags))
        assert loop_detector.detections == batch_detector.detections
        assert loop_detector.detection_classes == batch_detector.detection_classes
        assert loop_detector.batches_processed == batch_detector.batches_processed

    def test_detections_fire_on_drift(self, drifting_data):
        features, labels, predictions = drifting_data
        detector = self._detector()
        detector.warm_start(features[:200], labels[:200])
        detector.step_batch(features[200:], labels[200:], predictions[200:])
        assert detector.detections, "no drift detected on a double-drift stream"

    def test_shape_validation(self):
        detector = self._detector()
        with pytest.raises(ValueError):
            detector.step_batch(np.zeros((3, 5)), np.zeros(3, dtype=int), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            detector.step_batch(
                np.zeros((2, 8)), np.array([0, 9]), np.array([0, 0])
            )

    def test_empty_batch_is_noop(self):
        detector = self._detector()
        flags = detector.step_batch(
            np.empty((0, 8)), np.empty(0, dtype=int), np.empty(0, dtype=int)
        )
        assert flags.shape == (0,)
        assert detector.n_observations == 0


def test_empty_chunk_preserves_state():
    """A zero-length chunk is a strict no-op, like a zero-iteration loop.

    In particular it must not clear the drift/warning flags of the previous
    step — callers that forward possibly-empty chunks rely on this.
    """
    rng = np.random.default_rng(9)
    features = rng.random((600, 8))
    labels = rng.integers(0, 4, 600).astype(np.int64)
    predictions = np.where(
        rng.random(600) < 0.5, labels, rng.integers(0, 4, 600)
    ).astype(np.int64)
    empty = (np.empty((0, 8)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    for name in DETECTOR_NAMES:
        if name == "none":
            continue
        detector = build_detector(name, 8, 4)
        detector.step_batch(features, labels, predictions)
        before = (
            detector.in_drift,
            detector.in_warning,
            detector.drifted_classes,
            detector.n_observations,
            detector.detections,
        )
        flags = detector.step_batch(*empty)
        assert flags.shape == (0,)
        after = (
            detector.in_drift,
            detector.in_warning,
            detector.drifted_classes,
            detector.n_observations,
            detector.detections,
        )
        assert before == after, f"{name}: empty chunk mutated detector state"


def _stepped(name):
    """A registry detector for 8 features and 4 classes after 300 rows, and
    the rows (features, labels, predictions)."""
    rng = np.random.default_rng(4)
    features = rng.random((300, 8))
    labels = rng.integers(0, 4, 300).astype(np.int64)
    predictions = np.where(rng.random(300) < 0.6, labels, (labels + 1) % 4)
    detector = build_detector(name, 8, 4)
    detector.step_batch(features, labels, predictions)
    return detector, features, labels, predictions


@pytest.mark.parametrize("name", [name for name in DETECTOR_NAMES if name != "none"])
@pytest.mark.parametrize(
    "rows", [(6, 1), (6, 9), (5, 6)], ids=["short-y_pred", "long-y_pred", "short-features"]
)
def test_mismatched_batch_rows_are_refused(name, rows):
    """A batch whose columns disagree on the row count is refused before any
    state changes; NumPy would otherwise broadcast a 1-entry ``y_pred``
    against every row."""
    n_features_rows, n_predictions = rows
    detector, features, labels, predictions = _stepped(name)
    before = detector.snapshot()
    with pytest.raises(ValueError, match="batch rows disagree"):
        detector.step_batch(
            features[:n_features_rows], labels[:6], predictions[:n_predictions]
        )
    assert detector.snapshot() == before


def _assert_refused_unchanged(detector, entry, x, y_true, y_pred, match):
    """``entry`` refuses the last row of (x, y_true, y_pred) -- alone for
    ``step``, after five good rows for ``step_batch`` -- and the detector's
    snapshot is unchanged."""
    before = detector.snapshot()
    with pytest.raises(ValueError, match=match):
        if entry == "step":
            detector.step(x[-1], int(y_true[-1]), int(y_pred[-1]))
        else:
            detector.step_batch(x, y_true, y_pred)
    assert detector.snapshot() == before


ENTRY_POINTS = ["step", "step_batch"]
OUT_OF_RANGE = pytest.mark.parametrize("label", [-1, 4], ids=["minus-one", "n_classes"])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@OUT_OF_RANGE
@pytest.mark.parametrize("name", ["PerfSim", "DDM-OCI", "RBM-IM"])
def test_out_of_range_label_is_refused(name, label, entry):
    """PerfSim and DDM-OCI used to count label -1 as class ``n_classes - 1``
    and fail on ``n_classes`` with ``IndexError``; RBM-IM's ``step`` counted
    the row before refusing it."""
    detector, features, labels, predictions = _stepped(name)
    y_true = np.append(labels[:5], label)
    _assert_refused_unchanged(
        detector, entry, features[:6], y_true, predictions[:6], "label out of range"
    )


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@OUT_OF_RANGE
@pytest.mark.parametrize("name", ["PerfSim", "DDM-OCI"])
def test_out_of_range_prediction_is_refused(name, label, entry):
    detector, features, labels, predictions = _stepped(name)
    y_pred = np.append(predictions[:5], label)
    _assert_refused_unchanged(
        detector, entry, features[:6], labels[:6], y_pred, "label out of range"
    )


@pytest.mark.parametrize("label", [0.4, np.nan], ids=["fraction", "nan"])
@pytest.mark.parametrize("column", ["labels", "predictions"])
def test_label_that_is_not_a_whole_number_is_refused(column, label):
    """An int64 cast used to count 0.4 as class 0, and to turn NaN into
    -2**63 with a RuntimeWarning before refusing it as out of range."""
    detector, features, labels, predictions = _stepped("PerfSim")
    rows = {"labels": labels[:6] * 1.0, "predictions": predictions[:6] * 1.0}
    rows[column][-1] = label
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_refused_unchanged(
            detector,
            "step_batch",
            features[:6],
            rows["labels"],
            rows["predictions"],
            re.escape(f"{column} must be whole numbers, got {label!r}"),
        )


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("width", [7, 9])
def test_feature_width_is_refused(width, entry):
    detector, features, labels, predictions = _stepped("RBM-IM")
    x = np.random.default_rng(6).random((6, width))
    _assert_refused_unchanged(
        detector, entry, x, labels[:6], predictions[:6], "expected 8 features"
    )


def test_detection_classes_tracks_detections():
    features, labels = SEAGenerator(n_classes=3, seed=0).generate_batch(500)
    detector = DDM_OCI(n_classes=3)
    predictions = np.zeros_like(labels)
    detector.step_batch(features, labels, predictions)
    assert len(detector.detection_classes) == len(detector.detections)
