"""Hypothesis property tests for RBM-IM components and baseline detectors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.granger import granger_causality
from repro.core.loss import class_balanced_weights, effective_number
from repro.core.rbm import RBMConfig, SkewInsensitiveRBM
from repro.core.scaling import OnlineMinMaxScaler
from repro.core.trend import TrendTracker
from repro.detectors import ADWIN, DDM, FHDDM


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(0, 100_000), min_size=2, max_size=20),
    beta=st.floats(0.0, 0.9999),
)
def test_effective_number_bounds(counts, beta):
    counts = np.asarray(counts, dtype=float)
    effective = effective_number(counts, beta)
    assert np.all(effective >= 0.0)
    assert np.all(effective <= counts + 1e-9)
    if beta > 0.0:
        assert np.all(effective <= 1.0 / (1.0 - beta) + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 100_000), min_size=2, max_size=20),
    beta=st.floats(0.0, 0.9999),
)
def test_class_balanced_weights_order_reverses_counts(counts, beta):
    counts = np.asarray(counts, dtype=float)
    weights = class_balanced_weights(counts, beta)
    assert np.all(weights > 0.0)
    # Rarer classes never get smaller weights than more frequent ones.
    order = np.argsort(counts)
    sorted_weights = weights[order]
    assert np.all(np.diff(sorted_weights) <= 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        min_size=2,
        max_size=50,
    )
)
def test_scaler_output_always_in_unit_interval(rows):
    X = np.asarray(rows)
    scaler = OnlineMinMaxScaler(3)
    scaled = scaler.partial_fit_transform(X)
    assert np.all(scaled >= 0.0)
    assert np.all(scaled <= 1.0)
    assert np.all(np.isfinite(scaled))


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=100))
def test_trend_tracker_always_finite(values):
    tracker = TrendTracker()
    for value in values:
        slope = tracker.update(float(value))
        assert np.isfinite(slope)
    assert len(tracker.trend_history) == len(values)


@settings(max_examples=30, deadline=None)
@given(
    slope=st.floats(-5.0, 5.0),
    intercept=st.floats(-10.0, 10.0),
    n=st.integers(10, 60),
)
def test_trend_tracker_recovers_linear_slope(slope, intercept, n):
    tracker = TrendTracker(max_window=n, min_window=4)
    estimate = 0.0
    for t in range(n):
        estimate = tracker.update(slope * t + intercept)
    assert abs(estimate - slope) < 1e-6 + 0.05 * abs(slope)


@settings(max_examples=30, deadline=None)
@given(
    series_a=st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=60),
    series_b=st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=60),
    lags=st.integers(1, 3),
)
def test_granger_result_always_well_formed(series_a, series_b, lags):
    result = granger_causality(np.asarray(series_a), np.asarray(series_b), lags=lags)
    assert 0.0 <= result.p_value <= 1.0
    assert result.f_statistic >= 0.0
    assert result.n_observations >= 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rbm_probabilities_valid_for_random_weights(seed):
    rng = np.random.default_rng(seed)
    rbm = SkewInsensitiveRBM(
        RBMConfig(n_visible=5, n_hidden=4, n_classes=3, seed=seed)
    )
    X = rng.random((20, 5))
    y = rng.integers(0, 3, size=20)
    rbm.partial_fit(X, y)
    vz = np.hstack([X, np.eye(3)[y]])
    h = rbm.hidden_probabilities_packed(vz)
    assert np.all((h >= 0.0) & (h <= 1.0))
    recon = rbm.reconstruct_packed(h, out=np.empty_like(vz))
    x_recon, z_recon = recon[:, :5], recon[:, 5:]
    assert np.all((x_recon >= 0.0) & (x_recon <= 1.0))
    assert np.all((z_recon >= 0.0) & (z_recon <= 1.0))
    np.testing.assert_allclose(z_recon.sum(axis=1), 1.0, rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(errors=st.lists(st.integers(0, 1), min_size=1, max_size=500))
def test_error_rate_detectors_never_crash_and_flags_consistent(errors):
    x = np.zeros(1)
    for detector in (DDM(), FHDDM(window_size=25), ADWIN()):
        for error in errors:
            detector.step(x, error, 0)
            assert not (detector.in_drift and detector.in_warning)
        assert detector.n_observations == len(errors)
        assert all(1 <= pos <= len(errors) for pos in detector.detections)
