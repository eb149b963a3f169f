"""DDM-OCI: Drift Detection Method for Online Class Imbalance (Wang et al.).

DDM-OCI monitors the *time-decayed recall of each class* instead of the
overall error rate.  For every class a DDM-style test is applied to its
recall: the maximum recall (plus standard deviation) observed during the
current concept is remembered, and when the current recall falls below that
reference by more than the drift threshold a change is signalled for that
class.  Because each class is tracked separately, the detector reports the
set of classes responsible for the detection.

Batch stepping replays :meth:`DDM_OCI.add_result` in a tight loop over
hoisted per-class state (the ``_step_segment`` hook).  The loop stops at the
first drift and :meth:`~repro.detectors.base.DriftDetector.step_batch`, which
keeps the detection bookkeeping, resumes it on the remaining rows, so batch
detections are bit-identical to per-instance stepping.
"""

from __future__ import annotations

import math

import numpy as np

from repro.detectors.base import ClassConditionalDetector

__all__ = ["DDM_OCI"]


class DDM_OCI(ClassConditionalDetector):
    """Per-class time-decayed-recall drift detector.

    Parameters
    ----------
    n_classes:
        Number of classes monitored.
    warning_threshold, drift_threshold:
        Fractions of the best observed recall statistic below which the
        warning / drift states are raised (``alpha_w`` / ``alpha_d`` in the
        paper's Table II grid, e.g. 0.95 / 0.90).
    decay:
        Time-decay factor of the per-class recall estimate.
    min_errors:
        Minimum number of observations of a class before its test activates.
    """

    def __init__(
        self,
        n_classes: int,
        warning_threshold: float = 0.95,
        drift_threshold: float = 0.85,
        decay: float = 0.995,
        min_errors: int = 30,
    ) -> None:
        super().__init__(n_classes)
        if not 0.0 < drift_threshold < warning_threshold <= 1.0:
            raise ValueError("require 0 < drift_threshold < warning_threshold <= 1")
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self._warning_threshold = warning_threshold
        self._drift_threshold = drift_threshold
        self._decay = decay
        self._min_errors = min_errors
        self._reset_concept()

    def _reset_concept(self) -> None:
        n = self._n_classes
        self._recall = np.full(n, 0.5, dtype=np.float64)
        self._class_counts = np.zeros(n, dtype=np.int64)
        self._best_stat = np.full(n, -math.inf, dtype=np.float64)
        self._recall_mean = np.zeros(n, dtype=np.float64)
        self._recall_m2 = np.zeros(n, dtype=np.float64)

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    def class_recall(self, label: int) -> float:
        """Current time-decayed recall estimate of ``label``."""
        return float(self._recall[label])

    def add_result(self, y_true: int, y_pred: int) -> None:
        label = int(y_true)
        hit = 1.0 if y_true == y_pred else 0.0
        self._recall[label] = (
            self._decay * self._recall[label] + (1.0 - self._decay) * hit
        )
        self._class_counts[label] += 1
        count = self._class_counts[label]

        # Welford statistics of the recall trajectory for this class.
        delta = self._recall[label] - self._recall_mean[label]
        self._recall_mean[label] += delta / count
        self._recall_m2[label] += delta * (self._recall[label] - self._recall_mean[label])

        if count < self._min_errors:
            return

        std = math.sqrt(self._recall_m2[label] / count)
        stat = self._recall[label] + std
        if stat > self._best_stat[label]:
            self._best_stat[label] = stat
            return
        if self._best_stat[label] <= 0.0:
            return

        ratio = stat / self._best_stat[label]
        if ratio < self._drift_threshold:
            self._in_drift = True
            self._drifted_classes = {label}
            # Only the affected class is reset, the others keep their state —
            # this is what lets DDM-OCI react to repeated local changes.
            self._reset_class(label)
        elif ratio < self._warning_threshold:
            self._in_warning = True

    def _reset_class(self, label: int) -> None:
        self._recall[label] = 0.5
        self._class_counts[label] = 0
        self._best_stat[label] = -math.inf
        self._recall_mean[label] = 0.0
        self._recall_m2[label] = 0.0

    # ----------------------------------------------------------- batch kernel
    def _step_segment(
        self, features: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray
    ) -> int:
        """Tight-loop kernel over hoisted per-class state, up to the first drift.

        The per-class decayed-recall and Welford recurrences are inherently
        sequential, so the kernel keeps the state in plain Python lists and
        replays the exact scalar operations of :meth:`add_result` — several
        times faster than stepping per row (no attribute traffic, no NumPy
        scalar churn) and bit-identical to it.
        """
        recall = self._recall.tolist()
        counts = self._class_counts.tolist()
        best = self._best_stat.tolist()
        means = self._recall_mean.tolist()
        m2s = self._recall_m2.tolist()
        decay = self._decay
        one_minus = 1.0 - decay
        min_errors = self._min_errors
        warn_thr = self._warning_threshold
        drift_thr = self._drift_threshold
        sqrt = math.sqrt
        labels = y_true.tolist()
        hits = (y_true == y_pred).tolist()
        consumed = len(labels)
        in_warning = False
        for i, label in enumerate(labels):
            in_warning = False
            hit = 1.0 if hits[i] else 0.0
            r = decay * recall[label] + one_minus * hit
            recall[label] = r
            count = counts[label] + 1
            counts[label] = count
            delta = r - means[label]
            mean = means[label] + delta / count
            means[label] = mean
            m2 = m2s[label] + delta * (r - mean)
            m2s[label] = m2
            if count < min_errors:
                continue
            std = sqrt(m2 / count)
            stat = r + std
            if stat > best[label]:
                best[label] = stat
                continue
            if best[label] <= 0.0:
                continue
            ratio = stat / best[label]
            if ratio < drift_thr:
                self._in_drift = True
                self._drifted_classes = {label}
                recall[label] = 0.5
                counts[label] = 0
                best[label] = -math.inf
                means[label] = 0.0
                m2s[label] = 0.0
                consumed = i + 1
                break
            elif ratio < warn_thr:
                in_warning = True
        self._recall = np.asarray(recall, dtype=np.float64)
        self._class_counts = np.asarray(counts, dtype=np.int64)
        self._best_stat = np.asarray(best, dtype=np.float64)
        self._recall_mean = np.asarray(means, dtype=np.float64)
        self._recall_m2 = np.asarray(m2s, dtype=np.float64)
        self._in_warning = in_warning
        return consumed
