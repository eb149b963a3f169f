"""Behavioural oracle for WSTD (de Barros et al., 2018).

Goldens pin that every execution mode agrees; this suite pins that the
detector behaves like the published test.  The registry WSTD runs in
instance mode (one ``step()`` per row) on Bernoulli error streams:

* on a stationary stream the rank test raises few false alarms;
* after a sudden rise of the error rate it fires within a short delay.

Each trial draws its stream from its own seed: reproducible, and distinct
across trials, so the bounds hold over independent realisations rather than
one lucky stream.  The bounds leave a margin over the spread measured over
these seeds (1-9 false alarms per 20 000 rows; detection 20-39 rows after
the shift).
"""

from __future__ import annotations

import numpy as np
import pytest

from error_streams import feed_errors, make_error_stream
from repro.protocol.registry import build_detector

N_TRIALS = 10
#: One reproducible seed per trial, distinct across trials.
TRIAL_SEEDS = np.random.SeedSequence(2018).generate_state(N_TRIALS).tolist()

STATIONARY_ROWS = 20_000
MAX_FALSE_ALARMS = 15

SHIFT_AT = 5_000
SHIFT_RATES = (0.1, 0.4)
SHIFT_TAIL = 1_000  # rows after the shift; detection is required well before
MAX_DELAY = 100
MIN_DETECTED = 9


def run_wstd(errors) -> list:
    """0-based rows at which the registry WSTD, stepped per row, alarms."""
    return feed_errors(build_detector("WSTD", 1, 2), errors)


def test_trial_streams_are_reproducible_and_distinct():
    assert len(set(TRIAL_SEEDS)) == N_TRIALS
    streams = [
        make_error_stream(1_000, 0, 0.2, 0.2, seed=seed) for seed in TRIAL_SEEDS
    ]
    again = make_error_stream(1_000, 0, 0.2, 0.2, seed=TRIAL_SEEDS[0])
    np.testing.assert_array_equal(streams[0], again)
    assert len({stream.tobytes() for stream in streams}) == N_TRIALS


@pytest.mark.parametrize("error_rate", [0.05, 0.2, 0.4])
def test_false_alarm_ceiling_on_stationary_errors(error_rate):
    alarms = [
        len(run_wstd(make_error_stream(STATIONARY_ROWS, 0, error_rate, error_rate, seed)))
        for seed in TRIAL_SEEDS
    ]
    assert max(alarms) <= MAX_FALSE_ALARMS, alarms


def test_detects_sudden_shift_within_tolerance():
    before, after = SHIFT_RATES
    delays = []
    for seed in TRIAL_SEEDS:
        errors = make_error_stream(SHIFT_AT, SHIFT_TAIL, before, after, seed)
        post = [row for row in run_wstd(errors) if row >= SHIFT_AT]
        # Rows of the new concept seen when the first alarm fires.
        delays.append(post[0] + 1 - SHIFT_AT if post else None)
    detected = sum(delay is not None and delay <= MAX_DELAY for delay in delays)
    assert detected >= MIN_DETECTED, delays
