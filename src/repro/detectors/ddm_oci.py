"""DDM-OCI: Drift Detection Method for Online Class Imbalance (Wang et al.).

DDM-OCI monitors the *time-decayed recall of each class* instead of the
overall error rate.  For every class a DDM-style test is applied to its
recall: the maximum recall (plus standard deviation) observed during the
current concept is remembered, and when the current recall falls below that
reference by more than the drift threshold a change is signalled for that
class.  Because each class is tracked separately, the detector reports the
set of classes responsible for the detection.

:meth:`DDM_OCI.add_result` is the only update rule: batch stepping goes
through the per-row default hook of
:meth:`~repro.detectors.base.DriftDetector.step_batch`.  The per-class state
lives in plain Python lists: the rule reads and writes one entry per row,
which on Python floats takes about a third of the time it takes on NumPy
scalars.
"""

from __future__ import annotations

import math

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

    #: v2: the per-class state is five lists, so v1 checkpoints (which held
    #: five arrays) are ignored.
    SNAPSHOT_VERSION = 2

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
        self._recall = [0.5] * n
        self._class_counts = [0] * n
        self._best_stat = [-math.inf] * n
        self._recall_mean = [0.0] * n
        self._recall_m2 = [0.0] * n

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    def class_recall(self, label: int) -> float:
        """Current time-decayed recall estimate of ``label``."""
        return self._recall[label]

    def add_result(self, y_true: int, y_pred: int) -> None:
        label = int(y_true)
        decay = self._decay
        hit = 1.0 if y_true == y_pred else 0.0
        recall = decay * self._recall[label] + (1.0 - decay) * hit
        self._recall[label] = recall
        count = self._class_counts[label] + 1
        self._class_counts[label] = count

        # Welford statistics of the recall trajectory for this class.
        delta = recall - self._recall_mean[label]
        mean = self._recall_mean[label] + delta / count
        self._recall_mean[label] = mean
        m2 = self._recall_m2[label] + delta * (recall - mean)
        self._recall_m2[label] = m2

        if count < self._min_errors:
            return

        stat = recall + math.sqrt(m2 / count)
        best = self._best_stat[label]
        if stat > best:
            self._best_stat[label] = stat
            return
        if best <= 0.0:
            return

        ratio = stat / best
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
