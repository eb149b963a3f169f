"""Page-Hinkley test for concept drift (Page, 1954; Mouss et al., 2004).

The Page-Hinkley test monitors the cumulative difference between the observed
values and their running mean, minus a tolerance ``alpha``.  When the
difference between the cumulative sum and its running minimum exceeds the
threshold ``lambda_`` a change is signalled.  It is a classic sequential
change detector, included as an additional standard baseline and used in the
library's ablation studies.

:meth:`PageHinkley.add_element` is the detector's one update rule;
``step_batch`` feeds it the 0/1 errors of a batch.
"""

from __future__ import annotations

from repro.detectors.base import ErrorRateDetector

__all__ = ["PageHinkley"]


class PageHinkley(ErrorRateDetector):
    """Page-Hinkley cumulative-sum change detector.

    Parameters
    ----------
    min_instances:
        Observations required before the test activates.
    delta:
        Magnitude of allowed fluctuation (tolerance) around the mean.
    threshold:
        Detection threshold ``lambda``; larger values mean fewer alarms.
    alpha:
        Forgetting factor applied to the cumulative statistic.
    """

    def __init__(
        self,
        min_instances: int = 30,
        delta: float = 0.005,
        threshold: float = 50.0,
        alpha: float = 0.9999,
    ) -> None:
        super().__init__()
        if min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self._min_instances = min_instances
        self._delta = delta
        self._threshold = threshold
        self._alpha = alpha
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._count = 0
        self._value_sum = 0.0
        self._cumulative = 0.0
        self._minimum = float("inf")

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    def add_element(self, value: float) -> None:
        self._count += 1
        self._value_sum += value
        mean = self._value_sum / self._count
        self._cumulative = (
            self._cumulative * self._alpha + value - mean - self._delta
        )
        self._minimum = min(self._minimum, self._cumulative)

        if self._count < self._min_instances:
            return
        if self._cumulative - self._minimum > self._threshold:
            self._in_drift = True
            self._reset_concept()
