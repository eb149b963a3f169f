"""Prequential multi-class AUC (pmAUC).

Wang & Minku's prequential AUC generalised to multiple classes: over a sliding
window of recent prediction scores, a one-vs-rest AUC is computed for every
class with both positive and negative examples in the window, and the
per-class AUCs are averaged.  This is the primary skew-insensitive metric of
the paper's evaluation (Table III, Figs. 8-9).
"""

from __future__ import annotations

import numpy as np

from repro.core.snapshot import Snapshotable

__all__ = ["auc_from_scores", "midranks", "PrequentialMultiClassAUC"]


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D float64 array, ties sharing their mean rank.

    A tied run spanning sorted positions ``[start, end]`` gets
    ``(start + end + 2) / 2``.  Every rank is an exact half-integer, so the
    result equals ``scipy.stats.rankdata(values)`` bit for bit on NaN-free
    input (``-0.0`` and ``0.0`` tie, as they compare equal).  The rank tables
    (:func:`repro.evaluation.stats.average_ranks`) use it too.
    """
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    n = sorted_values.shape[0]
    run_starts = np.flatnonzero(
        np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    )
    run_lengths = np.diff(np.concatenate((run_starts, [n])))
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((2 * run_starts + run_lengths + 1) / 2.0, run_lengths)
    return ranks


def auc_from_scores(scores: np.ndarray, is_positive: np.ndarray) -> float:
    """Area under the ROC curve from scores and binary membership flags.

    Uses the rank-sum (Mann-Whitney) formulation with midrank tie handling.
    Returns NaN when either class is absent.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_positive = np.asarray(is_positive, dtype=bool)
    n_positive = int(is_positive.sum())
    n_negative = int((~is_positive).sum())
    if n_positive == 0 or n_negative == 0:
        return float("nan")
    rank_sum_positive = float(midranks(scores)[is_positive].sum())
    u_statistic = rank_sum_positive - n_positive * (n_positive + 1) / 2.0
    return float(u_statistic / (n_positive * n_negative))


class PrequentialMultiClassAUC(Snapshotable):
    """Sliding-window multi-class (one-vs-rest averaged) AUC.

    Parameters
    ----------
    n_classes:
        Number of classes.
    window_size:
        Number of most recent (scores, label) pairs kept for the computation
        (the paper uses 1000).
    """

    def __init__(self, n_classes: int, window_size: int = 1000) -> None:
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if window_size < 10:
            raise ValueError("window_size must be >= 10")
        self._n_classes = n_classes
        # Ring buffer instead of a deque of tuples: the AUC is rank-based, so
        # the in-window ordering is irrelevant and slots can be overwritten in
        # place — no per-update allocation, no per-readout vstack.  Zeroed,
        # so the unfilled slots snapshot the same every run.
        self._window_size = window_size
        self._scores = np.zeros((window_size, n_classes), dtype=np.float64)
        self._labels = np.zeros(window_size, dtype=np.int64)
        self._cursor = 0
        self._count = 0

    @property
    def window_size(self) -> int:
        return self._window_size

    def reset(self) -> None:
        self._cursor = 0
        self._count = 0

    def update(self, scores: np.ndarray, y_true: int) -> None:
        """Add one prediction: per-class scores and the true label."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape[0] != self._n_classes:
            raise ValueError(
                f"expected {self._n_classes} scores, got {scores.shape[0]}"
            )
        if not 0 <= int(y_true) < self._n_classes:
            raise ValueError("label out of range")
        self._scores[self._cursor] = scores
        self._labels[self._cursor] = int(y_true)
        self._cursor = (self._cursor + 1) % self._window_size
        self._count = min(self._count + 1, self._window_size)

    def update_batch(self, scores: np.ndarray, y_true: np.ndarray) -> None:
        """Add a batch of predictions; identical to repeated :meth:`update`."""
        scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        y_true = np.asarray(y_true, dtype=np.int64)
        if scores.shape[1] != self._n_classes:
            raise ValueError(
                f"expected {self._n_classes} scores per row, got {scores.shape[1]}"
            )
        n = y_true.shape[0]
        if n and (y_true.min() < 0 or y_true.max() >= self._n_classes):
            raise ValueError("label out of range")
        if n >= self._window_size:
            # Only the last window_size rows survive.
            scores = scores[n - self._window_size :]
            y_true = y_true[n - self._window_size :]
            n = self._window_size
        first = min(n, self._window_size - self._cursor)
        self._scores[self._cursor : self._cursor + first] = scores[:first]
        self._labels[self._cursor : self._cursor + first] = y_true[:first]
        remainder = n - first
        if remainder:
            self._scores[:remainder] = scores[first:]
            self._labels[:remainder] = y_true[first:]
        self._cursor = (self._cursor + n) % self._window_size
        self._count = min(self._count + n, self._window_size)

    def value(self) -> float:
        """Current pmAUC over the window (NaN-free: returns 0.5 when empty)."""
        if self._count == 0:
            return 0.5
        all_scores = self._scores[: self._count]
        labels = self._labels[: self._count]
        per_class = []
        for label in range(self._n_classes):
            positives = labels == label
            auc = auc_from_scores(all_scores[:, label], positives)
            if not np.isnan(auc):
                per_class.append(auc)
        if not per_class:
            return 0.5
        return float(np.mean(per_class))
