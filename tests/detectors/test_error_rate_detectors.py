"""Behavioural tests shared by all error-rate drift detectors.

Each detector is fed a Bernoulli error stream whose error rate jumps from a
low to a high value at a known position; it must (i) stay quiet on the stable
prefix and (ii) fire within a reasonable delay after the change.
"""

import numpy as np
import pytest

from error_streams import feed_errors, make_error_stream
from repro.detectors import (
    DDM,
    ECDDWT,
    EDDM,
    FHDDM,
    HDDM_A,
    HDDM_W,
    PageHinkley,
    RDDM,
    WSTD,
)

DETECTOR_FACTORIES = {
    "ddm": lambda: DDM(),
    "eddm": lambda: EDDM(min_num_errors=20),
    "rddm": lambda: RDDM(),
    "hddm_a": lambda: HDDM_A(),
    "hddm_w": lambda: HDDM_W(),
    "fhddm": lambda: FHDDM(window_size=100, delta=1e-6),
    "wstd": lambda: WSTD(window_size=75, max_old_instances=1000),
    "page_hinkley": lambda: PageHinkley(threshold=20.0),
    "ecdd": lambda: ECDDWT(),
}

CHANGE_AT = 2000

# Detector-specific false-alarm budgets on stationary data: detectors designed
# around an expected average run length (ECDD, ARL0 ~= 400) or known to be
# noisy on dense error streams (EDDM, HDDM_W) legitimately fire occasionally.
FALSE_ALARM_BUDGET = {"ecdd": 8, "eddm": 10, "hddm_w": 10, "rddm": 8}
DEFAULT_BUDGET = 4


def budget(name: str) -> int:
    return FALSE_ALARM_BUDGET.get(name, DEFAULT_BUDGET)


@pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
class TestAbruptErrorIncrease:
    def _run(self, name, p_before=0.05, p_after=0.6, seed=3):
        detector = DETECTOR_FACTORIES[name]()
        errors = make_error_stream(CHANGE_AT, 1500, p_before, p_after, seed=seed)
        return feed_errors(detector, errors)

    def test_detects_change(self, name):
        alarms = self._run(name)
        assert any(alarm >= CHANGE_AT for alarm in alarms), (
            f"{name} never fired after the change"
        )

    def test_detection_delay_is_bounded(self, name):
        alarms = self._run(name)
        post = [alarm for alarm in alarms if alarm >= CHANGE_AT]
        assert post and post[0] - CHANGE_AT < 1000

    def test_quiet_on_stable_prefix(self, name):
        alarms = self._run(name)
        false_alarms = [alarm for alarm in alarms if alarm < CHANGE_AT]
        assert len(false_alarms) <= budget(name), (
            f"{name} raised {false_alarms} before the change"
        )


@pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
class TestStationaryStream:
    def test_few_alarms_on_constant_error_rate(self, name):
        detector = DETECTOR_FACTORIES[name]()
        errors = make_error_stream(4000, 0, 0.2, 0.2, seed=11)
        alarms = feed_errors(detector, errors)
        assert len(alarms) <= 2 * budget(name), (
            f"{name} fired {len(alarms)} times on a stable stream"
        )


@pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
def test_reset_allows_reuse(name):
    detector = DETECTOR_FACTORIES[name]()
    errors = make_error_stream(500, 500, 0.05, 0.7, seed=5)
    feed_errors(detector, errors)
    detector.reset()
    assert detector.n_observations == 0
    assert detector.detections == []
    # After reset the detector behaves like a fresh instance on stable data.
    alarms = feed_errors(detector, make_error_stream(800, 0, 0.1, 0.1, seed=6))
    assert len(alarms) <= budget(name)
