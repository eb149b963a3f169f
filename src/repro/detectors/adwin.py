"""ADWIN — ADaptive WINdowing (Bifet & Gavalda, 2007).

ADWIN maintains a variable-length window of recent real values, stored in an
exponential histogram of buckets (:class:`~repro.core.windows.
ExponentialBuckets`).  Whenever the means of two sub-windows differ by more
than a bound derived from the Hoeffding inequality, the older sub-window is
dropped and a change is signalled.  Besides being one of the reference
detectors, ADWIN provides the *self-adaptive window size* used by RBM-IM's
trend estimation (Eq. 28-37 of the paper), exposed through
:attr:`ADWIN.width`.

The batch kernel precomputes the window statistics for a whole chunk (the
running totals and incremental variances are exact for the 0/1 error stream
``step_batch`` monitors), feeds the histogram in bulk, and evaluates the cut
test only at the clock positions, with the per-boundary scan vectorized over
the buckets.  The scalar cut scan is kept untouched so real-valued
``add_element`` streams (e.g. RBM-IM's trend windows) behave exactly as
before; for the binary streams both scans are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.windows import ExponentialBuckets, exclusive_totals, running_totals
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
            buckets = list(self._buckets.oldest_first())
            for size, total, _variance in buckets[:-1]:
                n0 += size
                sum0 += total
                n1 -= size
                sum1 -= total
                if n0 < self._min_window_length or n1 < self._min_window_length:
                    continue
                mean0 = sum0 / n0
                mean1 = sum1 / n1
                if self._cut_expression(n0, n1, mean0, mean1):
                    change_found = True
                    keep_looking = True
                    self._drop_oldest_bucket()
                    break
        return change_found

    def _cut_expression(
        self, n0: float, n1: float, mean0: float, mean1: float
    ) -> bool:
        n = float(self._width)
        harmonic = 1.0 / (1.0 / n0 + 1.0 / n1)
        delta_prime = self._delta / math.log(max(n, math.e))
        variance = self.variance
        epsilon = math.sqrt(
            (2.0 / harmonic) * variance * math.log(2.0 / delta_prime)
        ) + (2.0 / (3.0 * harmonic)) * math.log(2.0 / delta_prime)
        return abs(mean0 - mean1) > epsilon

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

    # ----------------------------------------------------------- batch kernel
    def _kernel_segment(self, errors: np.ndarray) -> tuple[int, bool, bool]:
        """Consume elements until a detection shrinks the window (or the end).

        Between detections the window only grows, so the running totals and
        incremental variances for the whole span can be precomputed in one
        vectorized pass (exact for the 0/1 inputs of the error stream); the
        histogram is fed in bulk and the scalar aggregates are only
        materialised at the clock boundaries where the cut test runs.
        """
        k = errors.shape[0]
        widths_excl = self._width + np.arange(k, dtype=np.float64)
        totals_excl = exclusive_totals(errors, self._total)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = totals_excl / widths_excl
        diff = errors - means
        incremental = widths_excl / (widths_excl + 1.0) * diff * diff
        incremental = np.where(widths_excl > 0.0, incremental, 0.0)
        acc_variance = running_totals(incremental, self._variance)
        totals = running_totals(errors, self._total)
        ticks = self._tick + np.arange(1, k + 1, dtype=np.int64)
        widths = self._width + np.arange(1, k + 1, dtype=np.int64)
        checks = np.flatnonzero(
            (ticks % self._clock == 0) & (widths > self._min_window_length)
        )
        values = errors.tolist()
        buckets = self._buckets
        applied = 0
        for c in checks.tolist():
            for j in range(applied, c + 1):
                buckets.append(values[j])
            applied = c + 1
            self._width = int(widths[c])
            self._total = float(totals[c])
            self._variance = float(acc_variance[c])
            self._tick = int(ticks[c])
            if self._detect_cut_vectorized():
                return c + 1, True, False
        for j in range(applied, k):
            buckets.append(values[j])
        self._width = int(widths[-1])
        self._total = float(totals[-1])
        self._variance = float(acc_variance[-1])
        self._tick = int(ticks[-1])
        return k, False, False

    def _detect_cut_vectorized(self) -> bool:
        """Cut scan with all split points evaluated at once.

        The scalar scan acts on the *first* cut it finds by dropping the
        oldest bucket and rescanning; since the action does not depend on
        where the cut was, "any split cuts" is decision-equivalent.  The
        cumulative sub-window sums are exact for integer-valued window
        contents, making this bit-identical to :meth:`_detect_cut` for the
        binary error stream.
        """
        change_found = False
        while True:
            sizes, totals = self._buckets.arrays_oldest_first()
            if sizes.shape[0] <= 1:
                return change_found
            n0 = np.add.accumulate(sizes[:-1])
            sum0 = np.add.accumulate(totals[:-1])
            n1 = self._width - n0
            sum1 = self._total - sum0
            valid = (n0 >= self._min_window_length) & (n1 >= self._min_window_length)
            if not valid.any():
                return change_found
            with np.errstate(invalid="ignore", divide="ignore"):
                mean0 = sum0 / n0
                mean1 = sum1 / n1
                harmonic = 1.0 / (1.0 / n0 + 1.0 / n1)
            n = float(self._width)
            delta_prime = self._delta / math.log(max(n, math.e))
            variance = self.variance
            log_term = math.log(2.0 / delta_prime)
            epsilon = np.sqrt((2.0 / harmonic) * variance * log_term) + (
                2.0 / (3.0 * harmonic)
            ) * log_term
            cut = valid & (np.abs(mean0 - mean1) > epsilon)
            if not cut.any():
                return change_found
            change_found = True
            self._drop_oldest_bucket()
