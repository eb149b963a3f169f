"""Bernoulli error streams for the error-rate detector tests.

Imported by name (``from error_streams import feed_errors``); pytest puts
this directory on ``sys.path`` when it loads ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np


def make_error_stream(
    n_before: int,
    n_after: int,
    p_before: float,
    p_after: float,
    seed: int = 0,
) -> np.ndarray:
    """Bernoulli error stream whose error rate changes after ``n_before``."""
    rng = np.random.default_rng(seed)
    before = (rng.random(n_before) < p_before).astype(float)
    after = (rng.random(n_after) < p_after).astype(float)
    return np.concatenate([before, after])


def feed_errors(detector, errors) -> list[int]:
    """Feed a 0/1 error sequence through a detector, returning alarm positions."""
    alarms = []
    x = np.zeros(1)
    for index, error in enumerate(errors):
        y_pred = 0
        y_true = 1 if error > 0.5 else 0
        if detector.step(x, y_true, y_pred):
            alarms.append(index)
    return alarms
