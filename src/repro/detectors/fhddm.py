"""Fast Hoeffding Drift Detection Method (FHDDM), Pesaranghader & Viktor 2016.

FHDDM slides a fixed-size window over the stream of prediction *correctness*
indicators (1 = correct).  It remembers the maximum windowed probability of a
correct prediction seen within the current concept and signals a drift when
the current windowed probability falls below that maximum by more than the
Hoeffding bound ``sqrt(ln(1/delta) / (2 n))``.

The window lives in a :class:`~repro.core.windows.RingWindow` whose
maintained sum is exact for the 0/1 indicator contents, so
:meth:`FHDDM.add_element`, the detector's one update rule, is O(1) per
element.
"""

from __future__ import annotations

import math

from repro.core.windows import RingWindow
from repro.detectors.base import ErrorRateDetector

__all__ = ["FHDDM"]


class FHDDM(ErrorRateDetector):
    """Fast Hoeffding drift detector over a sliding window of correctness bits.

    Parameters
    ----------
    window_size:
        Sliding window length ``n`` (25-100 in the paper's tuning grid).
    delta:
        Allowed error of the Hoeffding bound.
    """

    def __init__(self, window_size: int = 100, delta: float = 1e-6) -> None:
        super().__init__()
        if window_size < 2:
            raise ValueError("window_size must be >= 2")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        self._window_size = window_size
        self._delta = delta
        self._epsilon = math.sqrt(math.log(1.0 / delta) / (2.0 * window_size))
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._window = RingWindow(self._window_size)
        self._p_max = 0.0

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    @property
    def epsilon(self) -> float:
        """The Hoeffding bound used by the drift test."""
        return self._epsilon

    def add_element(self, value: float) -> None:
        correct = 0.0 if value > 0.5 else 1.0
        self._window.append(correct)
        if len(self._window) < self._window_size:
            return
        p_current = self._window.sum / self._window_size
        if p_current > self._p_max:
            self._p_max = p_current
        if self._p_max - p_current > self._epsilon:
            self._in_drift = True
            self._reset_concept()
