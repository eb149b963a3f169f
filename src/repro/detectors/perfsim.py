"""PerfSim drift detector for imbalanced streams (Antwi et al., 2012).

PerfSim monitors the *entire confusion matrix*: the per-class true-positive /
false-positive / false-negative / true-negative counts over consecutive
batches of instances are vectorised and compared with the cosine similarity.
A similarity drop beyond the allowed differentiation weight ``lambda_`` is
interpreted as a concept drift.  Because the whole matrix is monitored,
changes in minority-class behaviour contribute to the statistic even when the
overall accuracy is unaffected — which is why the paper uses PerfSim as one of
the two skew-insensitive reference detectors.

Batch stepping (the ``_step_segment`` hook) adds whole sub-chunks to the
confusion matrix between batch boundaries and stops at the first boundary
that drifts; :meth:`~repro.detectors.base.DriftDetector.step_batch`, which
keeps the detection bookkeeping, resumes it on the remaining rows.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import ClassConditionalDetector

__all__ = ["PerfSim"]


class PerfSim(ClassConditionalDetector):
    """Cosine-similarity test on consecutive confusion matrices.

    Parameters
    ----------
    n_classes:
        Number of classes monitored.
    batch_size:
        Number of predictions accumulated per comparison batch.
    lambda_:
        Differentiation weight: maximum allowed drop in cosine similarity
        between consecutive batches before a drift is signalled (0.1-0.4 in
        the paper's tuning grid).
    min_errors:
        Minimum number of misclassifications inside the batch for the test to
        be considered reliable (mirrors the ``n`` parameter of Table II).
    warning_fraction:
        Fraction of ``lambda_`` at which the warning state is raised.
    """

    def __init__(
        self,
        n_classes: int,
        batch_size: int = 500,
        lambda_: float = 0.2,
        min_errors: int = 30,
        warning_fraction: float = 0.5,
    ) -> None:
        super().__init__(n_classes)
        if batch_size < 10:
            raise ValueError("batch_size must be >= 10")
        if not 0.0 < lambda_ < 1.0:
            raise ValueError("lambda_ must be in (0, 1)")
        if not 0.0 < warning_fraction < 1.0:
            raise ValueError("warning_fraction must be in (0, 1)")
        self._batch_size = batch_size
        self._lambda = lambda_
        self._min_errors = min_errors
        self._warning_fraction = warning_fraction
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._current = np.zeros((self._n_classes, self._n_classes), dtype=np.float64)
        self._current_count = 0
        self._current_errors = 0
        self._reference: np.ndarray | None = None

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    @staticmethod
    def _cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
        va, vb = a.ravel(), b.ravel()
        norm = np.linalg.norm(va) * np.linalg.norm(vb)
        if norm == 0.0:
            return 1.0
        return float(np.dot(va, vb) / norm)

    def _responsible_classes(
        self, reference: np.ndarray, current: np.ndarray
    ) -> set[int]:
        """Classes whose confusion-matrix rows changed the most."""
        reference_rows = reference / np.maximum(reference.sum(axis=1, keepdims=True), 1.0)
        current_rows = current / np.maximum(current.sum(axis=1, keepdims=True), 1.0)
        deltas = np.abs(reference_rows - current_rows).sum(axis=1)
        threshold = max(float(deltas.mean()), 1e-9)
        return {int(k) for k in np.where(deltas > threshold)[0]}

    def add_result(self, y_true: int, y_pred: int) -> None:
        self._current[y_true, y_pred] += 1.0
        self._current_count += 1
        if y_true != y_pred:
            self._current_errors += 1
        if self._current_count < self._batch_size:
            return
        self._evaluate_full_batch()

    def _evaluate_full_batch(self) -> None:
        """Compare the completed accumulation batch against the reference."""
        current = self._current
        if self._reference is not None and self._current_errors >= self._min_errors:
            similarity = self._cosine_similarity(self._reference, current)
            drop = 1.0 - similarity
            if drop > self._lambda:
                self._in_drift = True
                self._drifted_classes = self._responsible_classes(
                    self._reference, current
                )
            elif drop > self._warning_fraction * self._lambda:
                self._in_warning = True
        # Whether or not a drift fired, the newest batch becomes the reference.
        self._reference = current
        self._current = np.zeros_like(current)
        self._current_count = 0
        self._current_errors = 0
        if self._in_drift:
            self._reference = None

    # ----------------------------------------------------------- batch kernel
    def _step_segment(
        self, features: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray
    ) -> int:
        """Accumulate whole sub-chunks into the confusion matrix at once.

        The expensive work (similarity test) only ever happens at batch
        boundaries, which the kernel jumps between directly, stopping at the
        first boundary that drifts; the integer confusion-matrix increments
        commute, so the accumulated matrices — and therefore the detections
        — are bit-identical to per-instance stepping.
        """
        n = y_true.shape[0]
        consumed = 0
        while consumed < n:
            take = min(self._batch_size - self._current_count, n - consumed)
            chunk_true = y_true[consumed : consumed + take]
            chunk_pred = y_pred[consumed : consumed + take]
            np.add.at(self._current, (chunk_true, chunk_pred), 1.0)
            self._current_count += take
            self._current_errors += int(np.count_nonzero(chunk_true != chunk_pred))
            consumed += take
            self._in_warning = False
            if self._current_count >= self._batch_size:
                self._evaluate_full_batch()
                if self._in_drift:
                    break
        return consumed
