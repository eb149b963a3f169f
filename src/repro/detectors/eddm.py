"""Early Drift Detection Method (EDDM), Baena-Garcia et al. 2006.

Instead of the error rate, EDDM monitors the average distance (in number of
instances) between consecutive misclassifications.  A shrinking distance means
errors are becoming denser, i.e. the concept is changing.  The ratio
``(p' + 2 s') / (p'_max + 2 s'_max)`` is compared against the warning
(``alpha``) and drift (``beta``) thresholds.

Distances are integers, so the sums of distances and squared distances are
exact.  :meth:`EDDM.add_element` is the detector's one update rule;
``step_batch`` feeds it the 0/1 errors of a batch.
"""

from __future__ import annotations

import math

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
    def _stat(dist_sum: float, dist_sq_sum: float, count: int) -> float:
        """``mean + 2 std`` of the error distances."""
        mean = dist_sum / count
        std = math.sqrt(max(dist_sq_sum / count - mean * mean, 0.0))
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

        stat = self._stat(self._dist_sum, self._dist_sq_sum, count)
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
