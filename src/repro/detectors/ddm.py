"""Drift Detection Method (DDM), Gama et al. 2004.

DDM monitors the classifier's online error rate ``p_t`` and its standard
deviation ``s_t = sqrt(p_t (1 - p_t) / t)``.  The minimum of ``p + s`` over the
current concept is remembered; a warning is raised when
``p_t + s_t >= p_min + warning_level * s_min`` and a drift when the same
exceeds the ``drift_level`` multiple.

:meth:`DDM.add_element` is the detector's one update rule; ``step_batch``
feeds it the 0/1 errors of a batch.
"""

from __future__ import annotations

import math

from repro.detectors.base import ErrorRateDetector

__all__ = ["DDM"]


class DDM(ErrorRateDetector):
    """Classic DDM with configurable warning/drift sigma multipliers.

    Parameters
    ----------
    min_num_instances:
        Number of observations required before the test activates.
    warning_level, drift_level:
        Multiples of the minimum standard deviation that trigger the warning
        and drift states (2 and 3 in the original paper).
    """

    def __init__(
        self,
        min_num_instances: int = 30,
        warning_level: float = 2.0,
        drift_level: float = 3.0,
    ) -> None:
        super().__init__()
        if min_num_instances < 1:
            raise ValueError("min_num_instances must be >= 1")
        if drift_level <= warning_level:
            raise ValueError("drift_level must exceed warning_level")
        self._min_num_instances = min_num_instances
        self._warning_level = warning_level
        self._drift_level = drift_level
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._sample_count = 0
        self._error_sum = 0.0
        self._p_min = math.inf
        self._s_min = math.inf
        self._ps_min = math.inf

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    def add_element(self, value: float) -> None:
        error = 1.0 if value > 0.5 else 0.0
        self._sample_count += 1
        count = self._sample_count
        self._error_sum += error
        p = self._error_sum / count
        s = math.sqrt(p * (1.0 - p) / count)

        if count < self._min_num_instances:
            return
        if p <= 0.0:
            # No errors observed yet: the reference statistics would collapse
            # to zero and any first error would trigger a spurious drift.
            return

        if p + s <= self._ps_min:
            self._p_min = p
            self._s_min = s
            self._ps_min = p + s

        if p + s >= self._p_min + self._drift_level * self._s_min:
            self._in_drift = True
            self._in_warning = False
            self._reset_concept()
        elif p + s >= self._p_min + self._warning_level * self._s_min:
            self._in_warning = True
