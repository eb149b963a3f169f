"""Unit tests for the ADWIN adaptive-windowing detector."""

import numpy as np
import pytest

from error_streams import feed_errors, make_error_stream
from repro.detectors import ADWIN


class TestADWINValidation:
    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            ADWIN(delta=0.0)
        with pytest.raises(ValueError):
            ADWIN(delta=1.0)

    def test_min_window_and_clock(self):
        with pytest.raises(ValueError):
            ADWIN(min_window_length=0)
        with pytest.raises(ValueError):
            ADWIN(clock=0)


class TestADWINStatistics:
    def test_estimation_tracks_mean(self):
        adwin = ADWIN(seed=None) if False else ADWIN()
        rng = np.random.default_rng(0)
        values = rng.normal(0.4, 0.05, size=2000)
        for value in values:
            adwin.add_element(float(value))
        assert adwin.estimation == pytest.approx(0.4, abs=0.05)

    def test_width_grows_on_stationary_data(self):
        adwin = ADWIN()
        for _ in range(1500):
            adwin.add_element(0.5)
        assert adwin.width == 1500

    def test_variance_non_negative(self):
        adwin = ADWIN()
        rng = np.random.default_rng(1)
        for value in rng.random(1000):
            adwin.add_element(float(value))
        assert adwin.variance >= 0.0

    def test_empty_window_defaults(self):
        adwin = ADWIN()
        assert adwin.estimation == 0.0
        assert adwin.variance == 0.0
        assert adwin.width == 0


class TestADWINChangeDetection:
    def test_window_shrinks_after_mean_shift(self):
        adwin = ADWIN(delta=0.002)
        rng = np.random.default_rng(2)
        for value in rng.normal(0.2, 0.05, size=2000):
            adwin.add_element(float(value))
        width_before = adwin.width
        for value in rng.normal(0.8, 0.05, size=600):
            adwin.add_element(float(value))
        assert adwin.width < width_before + 600
        assert adwin.estimation > 0.5

    def test_detects_error_rate_jump(self):
        adwin = ADWIN(delta=0.002)
        errors = make_error_stream(2000, 1000, 0.05, 0.6, seed=5)
        alarms = feed_errors(adwin, errors)
        assert any(alarm >= 2000 for alarm in alarms)

    def test_quiet_on_stationary_bernoulli(self):
        adwin = ADWIN(delta=0.002)
        errors = make_error_stream(4000, 0, 0.3, 0.3, seed=6)
        alarms = feed_errors(adwin, errors)
        assert len(alarms) <= 2

    def test_reset_clears_window(self):
        adwin = ADWIN()
        for _ in range(100):
            adwin.add_element(1.0)
        adwin.reset()
        assert adwin.width == 0
        assert adwin.estimation == 0.0

    def test_tracks_real_valued_signals(self):
        """ADWIN is used by RBM-IM on reconstruction errors (not only 0/1)."""
        adwin = ADWIN(delta=0.01)
        rng = np.random.default_rng(8)
        for value in rng.normal(1.0, 0.1, size=1500):
            adwin.add_element(float(value))
        for value in rng.normal(3.0, 0.1, size=400):
            adwin.add_element(float(value))
        assert adwin.estimation > 1.5
