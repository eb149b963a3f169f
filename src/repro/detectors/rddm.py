"""Reactive Drift Detection Method (RDDM), de Barros et al. 2017.

RDDM extends DDM with a pruning mechanism: when a concept grows beyond
``max_concept_size`` instances, the oldest ones are discarded and the DDM
statistics are recomputed over the most recent ``min_size_stable_concept``
instances, which restores sensitivity on long stable concepts.  A bounded
number of consecutive warnings (``warning_limit``) also forces a drift,
keeping reaction times short.

Error statistics are exact integer sums, shared between the scalar path and
the batch kernel (the rebuild after pruning replays the retained errors
through the same vectorized minimum tracker), so ``step_batch`` is
bit-identical to per-instance stepping.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.core.windows import (
    consecutive_true_runs,
    gather_tracked,
    running_totals,
    tracked_weak_min,
)
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
        """Recompute statistics from the last ``min_size_stable`` errors.

        The replay is vectorized through the same weak-minimum tracker the
        batch kernel uses, which is value-identical to re-ingesting the
        errors one at a time.
        """
        recent = np.asarray(self._stored_errors, dtype=np.float64)[
            -self._min_size_stable :
        ]
        self._reset_concept(clear_storage=True)
        self._stored_errors.extend(recent.tolist())
        if recent.shape[0] == 0:
            return
        counts = np.arange(1, recent.shape[0] + 1, dtype=np.int64)
        sums = running_totals(recent)
        p = sums / counts
        s = np.sqrt(p * (1.0 - p) / counts)
        active = (counts >= self._min_num_instances) & (sums > 0.0)
        self._sample_count = int(counts[-1])
        self._error_sum = float(sums[-1])
        if active.any():
            first = int(np.argmax(active))
            tracked = tracked_weak_min((p + s)[first:], math.inf)
            last = int(tracked[-1])
            if last >= 0:
                self._p_min = float(p[first + last])
                self._s_min = float(s[first + last])
                self._ps_min = float((p + s)[first + last])

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

    # ----------------------------------------------------------- batch kernel
    def _kernel_segment(self, errors: np.ndarray) -> tuple[int, bool, bool]:
        k = errors.shape[0]
        counts = self._sample_count + np.arange(1, k + 1, dtype=np.int64)
        # Pruning triggers when the concept outgrows max_concept_size; the
        # vectorized scan stops just before and the trigger element is
        # replayed through the scalar path (ingest -> rebuild -> test).
        over = counts > self._max_concept_size
        prune_at = int(np.argmax(over)) if over.any() else k
        if prune_at == 0:
            self._in_drift = False
            self._in_warning = False
            error = float(errors[0])
            self._stored_errors.append(error)
            self._ingest(error)
            self._rebuild_from_recent()
            self._test_current()
            return 1, self._in_drift, self._in_warning

        span = prune_at
        counts = counts[:span]
        sums = running_totals(errors[:span], self._error_sum)
        p = sums / counts
        s = np.sqrt(p * (1.0 - p) / counts)
        ps = p + s
        active = (counts >= self._min_num_instances) & (sums > 0.0)
        first_active = int(np.argmax(active)) if active.any() else span
        warning_last = False
        if first_active < span:
            ps_act = ps[first_active:]
            tracked = tracked_weak_min(ps_act, self._ps_min)
            p_min = gather_tracked(tracked, p[first_active:], self._p_min)
            s_min = gather_tracked(tracked, s[first_active:], self._s_min)
            drift = ps_act >= p_min + self._drift_level * s_min
            warning = ~drift & (ps_act >= p_min + self._warning_level * s_min)
            runs = consecutive_true_runs(warning, self._warning_count)
            forced = warning & (runs >= self._warning_limit)
            any_drift = drift | forced
            if any_drift.any():
                hit = first_active + int(np.argmax(any_drift))
                self._reset_concept(clear_storage=True)
                return hit + 1, True, False
            warning_last = bool(warning[-1])
            self._warning_count = int(runs[-1]) if warning_last else 0
            last = int(tracked[-1])
            if last >= 0:
                self._p_min = float(p[first_active + last])
                self._s_min = float(s[first_active + last])
                self._ps_min = float(ps[first_active + last])
        # Commit the un-drifted span; the stored-error log gains the span's
        # errors (deque maxlen evicts the oldest exactly as scalar appends).
        self._stored_errors.extend(errors[:span].tolist())
        self._sample_count = int(counts[-1])
        self._error_sum = float(sums[-1])
        if span < k:
            # The next element triggers pruning; consume it via the scalar
            # path so the rebuild + same-element test happen in order.
            self._in_drift = False
            self._in_warning = False
            error = float(errors[span])
            self._stored_errors.append(error)
            self._ingest(error)
            self._rebuild_from_recent()
            self._test_current()
            return span + 1, self._in_drift, self._in_warning
        return k, False, warning_last
