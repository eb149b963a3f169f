"""Reactive Drift Detection Method (RDDM), de Barros et al. 2017.

RDDM extends DDM with a pruning mechanism: when a concept grows beyond
``max_concept_size`` instances, the oldest ones are discarded and the DDM
statistics are recomputed over the most recent ``min_size_stable_concept``
instances, which restores sensitivity on long stable concepts.  A bounded
number of consecutive warnings (``warning_limit``) also forces a drift,
keeping reaction times short.

:meth:`RDDM.add_element` is the detector's one update rule; ``step_batch``
feeds it the 0/1 errors of a batch.  The rebuild after pruning replays the
retained errors through the same per-error update, :meth:`RDDM._ingest`.
"""

from __future__ import annotations

import math
from collections import deque

from repro.detectors.base import ErrorRateDetector

__all__ = ["RDDM"]


class RDDM(ErrorRateDetector):
    """Reactive DDM with instance pruning and a warning limit.

    Parameters
    ----------
    min_num_instances:
        Observations required before testing starts.
    warning_level, drift_level:
        Sigma multipliers, as in DDM (named ``alpha_w`` / ``alpha_d``-style
        thresholds in the paper's Table II grid).
    max_concept_size:
        Maximum number of stored instances before pruning triggers.
    min_size_stable_concept:
        Number of recent instances kept after pruning.
    warning_limit:
        Maximum number of consecutive warning states before a drift is forced.
    """

    def __init__(
        self,
        min_num_instances: int = 129,
        warning_level: float = 1.773,
        drift_level: float = 2.258,
        max_concept_size: int = 40_000,
        min_size_stable_concept: int = 7_000,
        warning_limit: int = 1_400,
    ) -> None:
        super().__init__()
        if drift_level <= warning_level:
            raise ValueError("drift_level must exceed warning_level")
        if min_size_stable_concept >= max_concept_size:
            raise ValueError("min_size_stable_concept must be < max_concept_size")
        self._min_num_instances = min_num_instances
        self._warning_level = warning_level
        self._drift_level = drift_level
        self._max_concept_size = max_concept_size
        self._min_size_stable = min_size_stable_concept
        self._warning_limit = warning_limit
        self._stored_errors: deque[float] = deque(maxlen=max_concept_size)
        self._reset_concept(clear_storage=True)

    def _reset_concept(self, clear_storage: bool) -> None:
        self._sample_count = 0
        self._error_sum = 0.0
        self._p_min = math.inf
        self._s_min = math.inf
        self._ps_min = math.inf
        self._warning_count = 0
        if clear_storage:
            self._stored_errors.clear()

    def reset(self) -> None:
        super().reset()
        self._reset_concept(clear_storage=True)

    def _rebuild_from_recent(self) -> None:
        """Recompute statistics from the last ``min_size_stable`` errors."""
        recent = list(self._stored_errors)[-self._min_size_stable :]
        self._reset_concept(clear_storage=True)
        self._stored_errors.extend(recent)
        for error in recent:
            self._ingest(error)

    def _ingest(self, error: float) -> None:
        self._sample_count += 1
        count = self._sample_count
        self._error_sum += error
        p = self._error_sum / count
        s = math.sqrt(p * (1.0 - p) / count)
        if count >= self._min_num_instances and p > 0.0 and p + s <= self._ps_min:
            self._p_min = p
            self._s_min = s
            self._ps_min = p + s

    def add_element(self, value: float) -> None:
        error = 1.0 if value > 0.5 else 0.0
        self._stored_errors.append(error)
        self._ingest(error)

        if self._sample_count > self._max_concept_size:
            self._rebuild_from_recent()

        self._test_current()

    def _test_current(self) -> None:
        """Run the drift/warning test against the current statistics."""
        count = self._sample_count
        if count < self._min_num_instances:
            return
        p = self._error_sum / count
        if p <= 0.0 or math.isinf(self._ps_min):
            return
        s = math.sqrt(p * (1.0 - p) / count)

        if p + s >= self._p_min + self._drift_level * self._s_min:
            self._in_drift = True
            self._in_warning = False
            self._reset_concept(clear_storage=True)
            return

        if p + s >= self._p_min + self._warning_level * self._s_min:
            self._warning_count += 1
            if self._warning_count >= self._warning_limit:
                self._in_drift = True
                self._in_warning = False
                self._reset_concept(clear_storage=True)
            else:
                self._in_warning = True
        else:
            self._warning_count = 0
