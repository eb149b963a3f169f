"""Early Drift Detection Method (EDDM), Baena-Garcia et al. 2006.

Instead of the error rate, EDDM monitors the average distance (in number of
instances) between consecutive misclassifications.  A shrinking distance means
errors are becoming denser, i.e. the concept is changing.  The ratio
``(p' + 2 s') / (p'_max + 2 s'_max)`` is compared against the warning
(``alpha``) and drift (``beta``) thresholds.

Distances are integers, so both paths track exact sums of distances and
squared distances; the batch kernel evaluates the same expressions over
cumulative sums and is bit-identical to per-instance stepping.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.windows import running_totals, strict_prefix_max_exclusive
from repro.detectors.base import ErrorRateDetector

__all__ = ["EDDM"]


class EDDM(ErrorRateDetector):
    """Early Drift Detection Method.

    Parameters
    ----------
    alpha:
        Warning threshold on the normalised distance statistic (default 0.95).
    beta:
        Drift threshold (default 0.90); must be below ``alpha``.
    min_num_errors:
        Number of misclassifications required before the test activates.
    """

    def __init__(
        self, alpha: float = 0.95, beta: float = 0.90, min_num_errors: int = 30
    ) -> None:
        super().__init__()
        if not 0.0 < beta < alpha <= 1.0:
            raise ValueError("require 0 < beta < alpha <= 1")
        self._alpha = alpha
        self._beta = beta
        self._min_num_errors = min_num_errors
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._instance_index = 0
        self._last_error_index = 0
        self._error_count = 0
        self._dist_sum = 0.0
        self._dist_sq_sum = 0.0
        self._max_stat = -math.inf

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    @staticmethod
    def _stat(dist_sum, dist_sq_sum, count):
        """``mean + 2 std`` of the error distances (array- or scalar-valued)."""
        mean = dist_sum / count
        std = np.sqrt(np.maximum(dist_sq_sum / count - mean * mean, 0.0))
        return mean + 2.0 * std

    def add_element(self, value: float) -> None:
        self._instance_index += 1
        if value <= 0.5:
            return
        # A misclassification occurred: update distance statistics.
        distance = self._instance_index - self._last_error_index
        self._last_error_index = self._instance_index
        self._error_count += 1
        count = self._error_count
        self._dist_sum += distance
        self._dist_sq_sum += distance * distance

        if count < self._min_num_errors:
            return

        stat = float(self._stat(self._dist_sum, self._dist_sq_sum, count))
        if stat > self._max_stat:
            self._max_stat = stat
            return
        if self._max_stat <= 0.0:
            return

        ratio = stat / self._max_stat
        if ratio < self._beta:
            self._in_drift = True
            self._in_warning = False
            self._reset_concept()
        elif ratio < self._alpha:
            self._in_warning = True

    # ----------------------------------------------------------- batch kernel
    def _kernel_segment(self, errors: np.ndarray) -> tuple[int, bool, bool]:
        k = errors.shape[0]
        error_positions = np.flatnonzero(errors > 0.5)
        if error_positions.shape[0] == 0:
            self._instance_index += k
            return k, False, False

        # Global instance index of every misclassification, then integer
        # distances to the previous one (seeded with the stored last index).
        instance_index = self._instance_index + error_positions + 1
        distances = np.diff(instance_index, prepend=self._last_error_index).astype(
            np.float64
        )
        counts = self._error_count + np.arange(
            1, distances.shape[0] + 1, dtype=np.int64
        )
        dist_sums = running_totals(distances, self._dist_sum)
        dist_sq_sums = running_totals(distances * distances, self._dist_sq_sum)
        stats = self._stat(dist_sums, dist_sq_sums, counts)

        active = counts >= self._min_num_errors
        first_active = int(np.argmax(active)) if active.any() else counts.shape[0]
        drifted = False
        warning_last = False
        consumed = k
        if first_active < counts.shape[0]:
            stats_act = stats[first_active:]
            # Strictly-greater statistics update the reference maximum and
            # skip the test; others are tested against the prior maximum.
            max_excl = strict_prefix_max_exclusive(stats_act, self._max_stat)
            tested = (stats_act <= max_excl) & (max_excl > 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = stats_act / max_excl
            drift = tested & (ratio < self._beta)
            if drift.any():
                hit = first_active + int(np.argmax(drift))
                self._reset_concept()
                return int(error_positions[hit]) + 1, True, False
            warning = tested & (ratio < self._alpha)
            warning_last = bool(warning[-1]) and int(error_positions[-1]) == k - 1
            self._max_stat = max(self._max_stat, float(stats_act.max()))
        # No drift: commit statistics to the end of the chunk.
        self._instance_index += k
        self._last_error_index = int(instance_index[-1])
        self._error_count = int(counts[-1])
        self._dist_sum = float(dist_sums[-1])
        self._dist_sq_sum = float(dist_sq_sums[-1])
        return consumed, drifted, warning_last
