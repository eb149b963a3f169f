"""Detector-specific tests for FHDDM, WSTD, HDDM, Page-Hinkley, and ECDD."""

import numpy as np
import pytest

from error_streams import feed_errors, make_error_stream
from repro.detectors import ECDDWT, FHDDM, HDDM_A, HDDM_W, PageHinkley, WSTD
from repro.detectors.wstd import _rank_sum_p_value, _rank_sum_p_values


class TestFHDDM:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FHDDM(window_size=1)
        with pytest.raises(ValueError):
            FHDDM(delta=0.0)

    def test_epsilon_matches_hoeffding_bound(self):
        detector = FHDDM(window_size=100, delta=1e-6)
        expected = np.sqrt(np.log(1e6) / 200.0)
        assert detector.epsilon == pytest.approx(expected)

    def test_no_decision_before_window_fills(self):
        detector = FHDDM(window_size=50)
        assert feed_errors(detector, [1.0] * 49) == []

    def test_detects_accuracy_drop(self):
        detector = FHDDM(window_size=100, delta=1e-6)
        errors = make_error_stream(1500, 600, 0.05, 0.65, seed=2)
        alarms = feed_errors(detector, errors)
        assert any(alarm >= 1500 for alarm in alarms)

    def test_smaller_delta_is_more_conservative(self):
        errors = make_error_stream(1500, 600, 0.05, 0.35, seed=3)
        loose = feed_errors(FHDDM(window_size=100, delta=1e-2), errors)
        strict = feed_errors(FHDDM(window_size=100, delta=1e-9), errors)
        assert len(strict) <= len(loose)


class TestWSTD:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WSTD(window_size=2)
        with pytest.raises(ValueError):
            WSTD(warning_significance=0.001, drift_significance=0.05)

    def test_detects_distribution_change(self):
        detector = WSTD(window_size=75, max_old_instances=1000)
        errors = make_error_stream(2000, 800, 0.05, 0.5, seed=4)
        alarms = feed_errors(detector, errors)
        assert any(alarm >= 2000 for alarm in alarms)

    def test_no_alarm_on_identical_constant_windows(self):
        detector = WSTD(window_size=25, min_instances=50)
        assert feed_errors(detector, [0.0] * 1000) == []

    def test_warning_state_reachable(self):
        detector = WSTD(
            window_size=50,
            warning_significance=0.2,
            drift_significance=1e-6,
            max_old_instances=500,
        )
        errors = make_error_stream(800, 400, 0.05, 0.4, seed=5)
        x = np.zeros(1)
        warned = False
        for error in errors:
            detector.step(x, 1 if error else 0, 0)
            warned = warned or detector.in_warning
        assert warned


def bits(values) -> np.ndarray:
    """The IEEE-754 bit patterns of float64 values (bit-identity, not ==)."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestWSTDClosedForm:
    """The closed-form p-values are bit-identical to the scipy reference."""

    MAX_OLD = 2_000  # WSTD's default max_old_instances

    @pytest.mark.parametrize("window_size", [5, 25, 75, 100])
    def test_vectorised_matches_scipy_over_count_grid(self, window_size):
        grid = []
        for n_old in (window_size, 3 * window_size + 1, self.MAX_OLD):
            for ones_old in sorted({0, 1, n_old // 10, n_old // 2, n_old - 1, n_old}):
                for ones_recent in range(window_size + 1):
                    if WSTD._is_constant(n_old, ones_old, window_size, ones_recent):
                        continue
                    grid.append((n_old, ones_old, window_size, ones_recent))
        counts = np.array(grid, dtype=np.int64)
        expected = [_rank_sum_p_value(*row) for row in grid]
        got = _rank_sum_p_values(*counts.T)
        assert got.shape == (len(grid),)
        np.testing.assert_array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("window_size", [5, 25, 75, 100])
    def test_scalar_calls_match_scipy(self, window_size):
        counts = (self.MAX_OLD, self.MAX_OLD // 10, window_size, window_size // 2)
        expected = bits(_rank_sum_p_value(*counts))
        zero_d = _rank_sum_p_values(*(np.asarray(c, dtype=np.int64) for c in counts))
        assert np.ndim(zero_d) == 0
        assert bits(zero_d) == expected
        # add_element passes plain Python ints.
        assert bits(_rank_sum_p_values(*counts)) == expected


class TestHDDM:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HDDM_A(drift_confidence=0.01, warning_confidence=0.001)
        with pytest.raises(ValueError):
            HDDM_W(lambda_=0.0)

    def test_hddm_a_faster_than_min_instances_free_ddm_on_abrupt(self):
        errors = make_error_stream(2000, 800, 0.05, 0.7, seed=6)
        alarms = feed_errors(HDDM_A(), errors)
        post = [alarm for alarm in alarms if alarm >= 2000]
        assert post and post[0] - 2000 < 400

    def test_hddm_w_detects_gradual_change(self):
        rng = np.random.default_rng(7)
        stable = (rng.random(2000) < 0.05).astype(float)
        ramp_probabilities = np.linspace(0.05, 0.5, 1500)
        ramp = (rng.random(1500) < ramp_probabilities).astype(float)
        alarms = feed_errors(HDDM_W(), np.concatenate([stable, ramp]))
        assert any(alarm >= 2000 for alarm in alarms)

    def test_two_sided_detects_error_decrease(self):
        errors = make_error_stream(2000, 1000, 0.6, 0.05, seed=8)
        one_sided = feed_errors(HDDM_A(two_sided=False), errors)
        two_sided = feed_errors(HDDM_A(two_sided=True), errors)
        assert any(a >= 2000 for a in two_sided)
        assert len([a for a in one_sided if a >= 2000]) <= len(
            [a for a in two_sided if a >= 2000]
        )


class TestPageHinkley:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PageHinkley(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkley(alpha=0.0)

    def test_detects_mean_increase(self):
        detector = PageHinkley(threshold=20.0)
        errors = make_error_stream(2000, 800, 0.05, 0.6, seed=9)
        alarms = feed_errors(detector, errors)
        assert any(alarm >= 2000 for alarm in alarms)

    def test_higher_threshold_fewer_alarms(self):
        errors = make_error_stream(2000, 800, 0.05, 0.4, seed=10)
        low = feed_errors(PageHinkley(threshold=5.0), errors)
        high = feed_errors(PageHinkley(threshold=80.0), errors)
        assert len(high) <= len(low)


class TestECDD:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ECDDWT(lambda_=0.0)
        with pytest.raises(ValueError):
            ECDDWT(warning_fraction=1.5)

    def test_detects_error_increase(self):
        detector = ECDDWT(lambda_=0.2)
        errors = make_error_stream(2000, 800, 0.05, 0.5, seed=11)
        alarms = feed_errors(detector, errors)
        assert any(alarm >= 2000 for alarm in alarms)

    def test_warning_before_drift_possible(self):
        detector = ECDDWT(lambda_=0.2, warning_fraction=0.3)
        errors = make_error_stream(1000, 500, 0.05, 0.5, seed=12)
        x = np.zeros(1)
        states = []
        for error in errors:
            detector.step(x, 1 if error else 0, 0)
            states.append((detector.in_warning, detector.in_drift))
        first_warning = next((i for i, s in enumerate(states) if s[0]), None)
        first_drift = next((i for i, s in enumerate(states) if s[1]), None)
        assert first_drift is not None
        if first_warning is not None:
            assert first_warning <= first_drift
