"""ADWIN — ADaptive WINdowing (Bifet & Gavalda, 2007).

ADWIN maintains a variable-length window of recent real values, stored in an
exponential histogram of buckets (:class:`~repro.core.windows.
ExponentialBuckets`).  Whenever the means of two sub-windows differ by more
than a bound derived from the Hoeffding inequality, the older sub-window is
dropped and a change is signalled.  Besides being one of the reference
detectors, ADWIN provides the *self-adaptive window size* used by RBM-IM's
trend estimation (Eq. 28-37 of the paper), exposed through
:attr:`ADWIN.width`.

:meth:`ADWIN.add_element` is the detector's one update rule, for the 0/1
error stream ``step_batch`` feeds it and for real-valued signals alike.
"""

from __future__ import annotations

import math

from repro.core.windows import ExponentialBuckets
from repro.detectors.base import ErrorRateDetector

__all__ = ["ADWIN"]


class ADWIN(ErrorRateDetector):
    """Adaptive sliding-window change detector over a real-valued signal.

    Parameters
    ----------
    delta:
        Confidence parameter of the Hoeffding-style cut test (smaller values
        make the detector more conservative).
    min_window_length:
        Minimum sub-window length considered when looking for a cut.
    clock:
        Number of observations between cut checks (1 = check every instance).
    """

    def __init__(
        self, delta: float = 0.002, min_window_length: int = 5, clock: int = 32
    ) -> None:
        super().__init__()
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if min_window_length < 1:
            raise ValueError("min_window_length must be >= 1")
        if clock < 1:
            raise ValueError("clock must be >= 1")
        self._delta = delta
        self._min_window_length = min_window_length
        self._clock = clock
        self._init_buckets()

    def _init_buckets(self) -> None:
        self._buckets = ExponentialBuckets()
        self._total = 0.0
        self._variance = 0.0
        self._width = 0
        self._tick = 0

    def reset(self) -> None:
        super().reset()
        self._init_buckets()

    # ------------------------------------------------------------ properties
    @property
    def width(self) -> int:
        """Current adaptive window length."""
        return self._width

    @property
    def estimation(self) -> float:
        """Mean of the values currently inside the window."""
        if self._width == 0:
            return 0.0
        return self._total / self._width

    @property
    def variance(self) -> float:
        """Variance of the values currently inside the window."""
        if self._width == 0:
            return 0.0
        return self._variance / self._width

    # -------------------------------------------------------------- updates
    def add_element(self, value: float) -> None:
        self._insert(value)
        self._tick += 1
        if self._tick % self._clock == 0 and self._width > self._min_window_length:
            if self._detect_cut():
                self._in_drift = True

    def _insert(self, value: float) -> None:
        if self._width > 0:
            mean = self._total / self._width
            incremental_variance = (
                (self._width / (self._width + 1.0)) * (value - mean) * (value - mean)
            )
        else:
            incremental_variance = 0.0
        self._width += 1
        self._total += value
        self._variance += incremental_variance
        self._buckets.append(value)

    def _detect_cut(self) -> bool:
        """Look for a split point where the two sub-window means differ."""
        change_found = False
        keep_looking = True
        while keep_looking:
            keep_looking = False
            n0 = 0.0
            sum0 = 0.0
            n1 = float(self._width)
            sum1 = self._total
            # The window, and with it the bound's confidence and variance
            # terms, is fixed for the whole pass over the split points.
            delta_prime = self._delta / math.log(max(float(self._width), math.e))
            log_term = math.log(2.0 / delta_prime)
            variance = self.variance
            buckets = list(self._buckets.oldest_first())
            for size, total, _variance in buckets[:-1]:
                n0 += size
                sum0 += total
                n1 -= size
                sum1 -= total
                if n0 < self._min_window_length or n1 < self._min_window_length:
                    continue
                harmonic = 1.0 / (1.0 / n0 + 1.0 / n1)
                epsilon = math.sqrt(
                    (2.0 / harmonic) * variance * log_term
                ) + (2.0 / (3.0 * harmonic)) * log_term
                if abs(sum0 / n0 - sum1 / n1) > epsilon:
                    change_found = True
                    keep_looking = True
                    self._drop_oldest_bucket()
                    break
        return change_found

    def _drop_oldest_bucket(self) -> None:
        popped = self._buckets.pop_oldest()
        if popped is None:
            return
        size, total, variance = popped
        if self._width > size:
            mean = total / size
            overall_mean = self._total / self._width
            self._variance -= variance + size * (self._width - size) / self._width * (
                mean - overall_mean
            ) * (mean - overall_mean)
            self._variance = max(self._variance, 0.0)
        self._width -= int(size)
        self._total -= total
        if self._width <= 0:
            self._init_buckets()
