"""Hypothesis property tests for the metric implementations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.confusion import StreamingConfusionMatrix
from repro.metrics.drift_eval import evaluate_detections
from repro.metrics.pmauc import PrequentialMultiClassAUC, auc_from_scores

prediction_pairs = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=300
)


@settings(max_examples=60, deadline=None)
@given(pairs=prediction_pairs)
def test_confusion_total_equals_number_of_updates(pairs):
    cm = StreamingConfusionMatrix(4)
    for y_true, y_pred in pairs:
        cm.update(y_true, y_pred)
    assert cm.total == len(pairs)
    assert cm.matrix.sum() == len(pairs)


@settings(max_examples=60, deadline=None)
@given(pairs=prediction_pairs)
def test_confusion_metrics_bounded(pairs):
    cm = StreamingConfusionMatrix(4)
    for y_true, y_pred in pairs:
        cm.update(y_true, y_pred)
    assert 0.0 <= cm.accuracy() <= 1.0
    assert 0.0 <= cm.geometric_mean() <= 1.0
    assert -1.0 <= cm.kappa() <= 1.0
    recalls = cm.recall_per_class()
    observed = ~np.isnan(recalls)
    assert np.all((recalls[observed] >= 0.0) & (recalls[observed] <= 1.0))


@settings(max_examples=60, deadline=None)
@given(pairs=prediction_pairs, window=st.integers(1, 50))
def test_windowed_confusion_never_exceeds_window(pairs, window):
    cm = StreamingConfusionMatrix(4, window_size=window)
    for y_true, y_pred in pairs:
        cm.update(y_true, y_pred)
    assert cm.total <= window


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=200),
    data=st.data(),
)
def test_auc_bounded_and_complement_symmetric(scores, data):
    scores = np.asarray(scores)
    flags = np.asarray(
        data.draw(
            st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))
        )
    )
    auc = auc_from_scores(scores, flags)
    if np.isnan(auc):
        assert flags.all() or (~flags).all()
    else:
        assert 0.0 <= auc <= 1.0
        # Swapping the positive class inverts the AUC.
        complement = auc_from_scores(scores, ~flags)
        assert abs(auc + complement - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(st.integers(0, 2), min_size=5, max_size=200),
    seed=st.integers(0, 1000),
)
def test_pmauc_perfect_scorer_dominates_random(labels, seed):
    rng = np.random.default_rng(seed)
    perfect = PrequentialMultiClassAUC(3, window_size=500)
    random_scorer = PrequentialMultiClassAUC(3, window_size=500)
    for label in labels:
        ideal = np.full(3, 0.05)
        ideal[label] = 0.9
        perfect.update(ideal, label)
        noise = rng.random(3)
        random_scorer.update(noise / noise.sum(), label)
    assert perfect.value() >= random_scorer.value() - 0.35
    assert 0.0 <= perfect.value() <= 1.0


@settings(max_examples=60, deadline=None)
@given(pairs=prediction_pairs)
def test_gmean_upper_bounded_by_best_recall(pairs):
    gmean = StreamingConfusionMatrix(4, window_size=1000)
    for y_true, y_pred in pairs:
        gmean.update(y_true, y_pred)
    recalls = gmean.recall_per_class()
    observed = recalls[~np.isnan(recalls)]
    if observed.size:
        assert gmean.geometric_mean() <= observed.max() + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    true_drifts=st.lists(st.integers(0, 10_000), max_size=10),
    detections=st.lists(st.integers(0, 10_000), max_size=30),
    tolerance=st.integers(0, 3000),
)
def test_drift_report_invariants(true_drifts, detections, tolerance):
    report = evaluate_detections(true_drifts, detections, tolerance=tolerance)
    assert 0 <= report.n_detected <= report.n_true_drifts
    assert report.n_false_alarms <= report.n_detections
    assert 0.0 <= report.detection_recall <= 1.0
    if report.n_detected:
        assert 0.0 <= report.mean_delay <= tolerance
