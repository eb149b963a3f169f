"""Detector-specific tests for DDM, EDDM, and RDDM."""

import pytest

from error_streams import feed_errors, make_error_stream
from repro.detectors import DDM, EDDM, RDDM


class TestDDM:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DDM(min_num_instances=0)
        with pytest.raises(ValueError):
            DDM(warning_level=3.0, drift_level=2.0)

    def test_warning_precedes_drift(self):
        detector = DDM(min_num_instances=30)
        errors = make_error_stream(1000, 800, 0.02, 0.5, seed=1)
        warning_at = None
        drift_at = None
        import numpy as np

        x = np.zeros(1)
        for index, error in enumerate(errors):
            detector.step(x, 1 if error else 0, 0)
            if detector.in_warning and warning_at is None:
                warning_at = index
            if detector.in_drift and drift_at is None:
                drift_at = index
                break
        assert warning_at is not None and drift_at is not None
        assert warning_at <= drift_at

    def test_no_test_before_min_instances(self):
        detector = DDM(min_num_instances=50)
        errors = [1.0] * 40  # all errors, but below the activation threshold
        assert feed_errors(detector, errors) == []

    def test_internal_state_resets_after_drift(self):
        detector = DDM()
        errors = make_error_stream(800, 400, 0.02, 0.7, seed=2)
        feed_errors(detector, errors)
        # After a drift the error-rate estimate restarts from scratch.
        assert detector._sample_count < len(errors)


class TestEDDM:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EDDM(alpha=0.8, beta=0.9)
        with pytest.raises(ValueError):
            EDDM(alpha=1.2, beta=0.9)

    def test_detects_increasing_error_density(self):
        detector = EDDM(min_num_errors=15)
        errors = make_error_stream(3000, 1200, 0.02, 0.5, seed=4)
        alarms = feed_errors(detector, errors)
        assert any(alarm >= 3000 for alarm in alarms)

    def test_ignores_error_free_stream(self):
        detector = EDDM()
        assert feed_errors(detector, [0.0] * 2000) == []

    def test_distance_statistics_updated_only_on_errors(self):
        detector = EDDM()
        feed_errors(detector, [0.0, 0.0, 1.0, 0.0, 1.0])
        assert detector._error_count == 2


class TestRDDM:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RDDM(warning_level=3.0, drift_level=2.0)
        with pytest.raises(ValueError):
            RDDM(max_concept_size=100, min_size_stable_concept=200)

    def test_pruning_keeps_detector_reactive_on_long_concepts(self):
        detector = RDDM(
            min_num_instances=60,
            max_concept_size=3_000,
            min_size_stable_concept=500,
            warning_limit=400,
        )
        errors = make_error_stream(6_000, 1_500, 0.05, 0.6, seed=7)
        alarms = feed_errors(detector, errors)
        post = [alarm for alarm in alarms if alarm >= 6_000]
        assert post and post[0] - 6_000 < 800

    def test_warning_limit_forces_drift(self):
        detector = RDDM(min_num_instances=30, warning_limit=5)
        # A slow, persistent degradation keeps the detector in warning; the
        # warning limit must eventually convert it into a drift.
        errors = make_error_stream(500, 3_000, 0.05, 0.22, seed=9)
        alarms = feed_errors(detector, errors)
        assert alarms, "warning_limit did not force a drift"

    def test_stored_errors_bounded(self):
        detector = RDDM(max_concept_size=1_000, min_size_stable_concept=200)
        feed_errors(detector, make_error_stream(5_000, 0, 0.1, 0.1, seed=3))
        assert len(detector._stored_errors) <= 1_000
