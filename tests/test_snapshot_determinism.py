"""Identically driven instances snapshot identically.

A snapshot must hold only state an instance computed, never leftover bytes
of memory it allocated but has not written yet: otherwise two identical runs
write different checkpoints, and comparing two snapshots says nothing about
the runs behind them.  Each subject below (every registry detector, the
prequential evaluator, naive Bayes, the paper's tree and a scenario stream)
is built and driven the same way several times.  Right before each build, a
block of the size of every array the subject snapshots is allocated, filled
with a non-zero byte pattern that differs from run to run, and freed, so a
buffer the subject allocates uninitialised (``np.empty``) would likely reuse
one and snapshot a different pattern in each run.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.classifiers import GaussianNaiveBayes
from repro.core.jsonio import dumps_strict
from repro.evaluation.experiment import default_classifier_factory
from repro.metrics.prequential import PrequentialEvaluator
from repro.protocol.registry import DETECTOR_NAMES, build_detector
from repro.streams.scenarios import make_artificial_stream

N_CLASSES = 5
N_FEATURES = 20
N_ROWS = 300
#: One fill byte per run.
PATTERNS = (0xA5, 0x5A, 0xC3, 0x3C)


def _inputs():
    """Rows, labels, predictions and scores with an error-rate jump."""
    rng = np.random.default_rng(8)
    features = rng.random((N_ROWS, N_FEATURES))
    labels = rng.integers(0, N_CLASSES, N_ROWS)
    is_error = rng.random(N_ROWS) < np.where(np.arange(N_ROWS) < 150, 0.1, 0.6)
    offsets = rng.integers(1, N_CLASSES, N_ROWS)
    predictions = np.where(is_error, (labels + offsets) % N_CLASSES, labels)
    scores = rng.dirichlet(np.ones(N_CLASSES), N_ROWS)
    return features, labels, predictions, scores


def _step_detector(detector):
    features, labels, predictions, _ = _inputs()
    detector.step_batch(features, labels, predictions)


def _update_evaluator(evaluator):
    _, labels, predictions, scores = _inputs()
    evaluator.update_batch(scores, labels, predictions)


def _fit_classifier(classifier):
    features, labels, _, _ = _inputs()
    classifier.predict_fit_interleaved(features, labels)


def _draw_rows(stream):
    stream.generate_batch(N_ROWS)


#: Subject id -> (zero-argument builder, driver).
SUBJECTS = {
    **{
        name: (
            functools.partial(build_detector, name, N_FEATURES, N_CLASSES),
            _step_detector,
        )
        for name in DETECTOR_NAMES
        if name != "none"
    },
    "PrequentialEvaluator": (
        functools.partial(PrequentialEvaluator, N_CLASSES),
        _update_evaluator,
    ),
    "GaussianNaiveBayes": (
        functools.partial(GaussianNaiveBayes, N_FEATURES, N_CLASSES),
        _fit_classifier,
    ),
    "default-tree": (
        functools.partial(default_classifier_factory, N_FEATURES, N_CLASSES),
        _fit_classifier,
    ),
    "scenario-stream": (
        lambda: make_artificial_stream(
            "rbf", n_classes=N_CLASSES, n_instances=2_000, seed=3
        ).stream,
        _draw_rows,
    ),
}


def _array_nbytes(payload) -> set[int]:
    """Byte sizes of the arrays an encoded snapshot holds."""
    if isinstance(payload, list):
        return set().union(*map(_array_nbytes, payload))
    if not isinstance(payload, dict):
        return set()
    if "__nd__" in payload:
        array = payload["__nd__"]
        return {np.dtype(array["dtype"]).itemsize * math.prod(array["shape"])}
    return set().union(*map(_array_nbytes, payload.values()))


def _dirty_freed_memory(sizes, pattern: int) -> None:
    """Allocate a block of each size filled with ``pattern``, then free them."""
    blocks = [np.full(size, pattern, dtype=np.uint8) for size in sorted(sizes)]
    del blocks


@pytest.mark.parametrize("subject", list(SUBJECTS))
def test_identically_driven_instances_snapshot_identically(subject):
    build, drive = SUBJECTS[subject]
    probe = build()
    drive(probe)
    sizes = _array_nbytes(probe.snapshot())
    del probe
    snapshots = set()
    for pattern in PATTERNS:
        _dirty_freed_memory(sizes, pattern)
        instance = build()
        drive(instance)
        snapshots.add(dumps_strict(instance.snapshot()))
    assert len(snapshots) == 1
