"""Streaming classifier interface used by the evaluation harness.

All classifiers learn incrementally (``partial_fit``) and expose both hard
predictions and class-probability scores; the scores feed the prequential
multi-class AUC metric.  ``reset()`` rebuilds the model from scratch and is
called by the harness when a drift detector signals a change.

The interface is batch-first: the chunked prequential runner calls
``partial_fit_batch`` / ``predict_proba_batch`` (batch mode) and
``predict_fit_interleaved`` (chunk-exact mode), which default to per-instance
loops so every classifier works unchanged.  Naive Bayes and the perceptron
override the batch pair with native NumPy paths; naive Bayes, the perceptron
and the perceptron tree override ``predict_fit_interleaved`` with bit-exact
kernels.  Each kernel computes every value that does not depend on the
previous row once per chunk, and loops per row only over the true
recurrences: the Welford means, replayed in lock-step by
:func:`repro.classifiers.welford.replay_welford` (shared by all three), and
the perceptron weights.  The runner also replays a rebuilt classifier's
buffer and chunk-exact mode's pretrain rows through
``predict_fit_interleaved``, dropping the scores.  Every entry point that
takes labels checks them against the feature rows, the whole numbers and the
class range first (:meth:`StreamClassifier._checked_batch`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.labels import as_labels
from repro.core.snapshot import Snapshotable

__all__ = ["StreamClassifier", "MajorityClassClassifier", "NoChangeClassifier"]


class StreamClassifier(Snapshotable, abc.ABC):
    """Base class for incremental (streaming) classifiers."""

    def __init__(self, n_features: int, n_classes: int) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self._n_features = n_features
        self._n_classes = n_classes

    @property
    def n_features(self) -> int:
        return self._n_features

    @property
    def n_classes(self) -> int:
        return self._n_classes

    @abc.abstractmethod
    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        """Learn a single labelled instance with an optional importance weight."""

    @abc.abstractmethod
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class-probability estimates for one instance (sums to 1)."""

    def predict(self, x: np.ndarray) -> int:
        """Most probable class for one instance."""
        return int(np.argmax(self.predict_proba(x)))

    # --------------------------------------------------------- batch interface
    def _checked_batch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Coerce a labelled batch; refuse one that is not one feature row
        (and, when given, one weight) per label, or that has a label that is
        not a whole number (:func:`~repro.core.labels.as_labels`) or lies
        outside ``[0, n_classes)``.

        Every batch entry point that takes labels calls this first.  Past
        it, a count mismatch would be padded with uninitialised score rows,
        cut short, or learned against the wrong labels, a label of -1 would
        be learned as the last class through negative indexing, and a label
        of 0.4 as class 0.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        labels = as_labels(labels)
        if (
            features.ndim != 2
            or labels.ndim != 1
            or features.shape[0] != labels.shape[0]
        ):
            raise ValueError(
                "need one 2-D feature row per label, got features of shape "
                f"{features.shape} and labels of shape {labels.shape}"
            )
        if labels.shape[0] and (
            labels.min() < 0 or labels.max() >= self._n_classes
        ):
            raise ValueError(
                f"label out of range [0, {self._n_classes}): "
                f"labels span {labels.min()}..{labels.max()}"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != labels.shape:
                raise ValueError(
                    "need one weight per label, got weights of shape "
                    f"{weights.shape} and labels of shape {labels.shape}"
                )
        return features, labels, weights

    def partial_fit_batch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Learn a batch of labelled instances.

        The default adapter replays the batch through :meth:`partial_fit` one
        instance at a time, so results are identical to instance-by-instance
        learning.  Native overrides may use mini-batch semantics (one update
        from the whole batch); they document any such deviation.
        """
        features, labels, weights = self._checked_batch(features, labels, weights)
        if weights is None:
            for i in range(labels.shape[0]):
                self.partial_fit(features[i], int(labels[i]))
        else:
            for i in range(labels.shape[0]):
                self.partial_fit(features[i], int(labels[i]), float(weights[i]))

    def predict_proba_batch(self, features: np.ndarray) -> np.ndarray:
        """Class-probability estimates for a batch, shape ``(n, n_classes)``.

        Default adapter: loops over :meth:`predict_proba`.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        out = np.empty((features.shape[0], self._n_classes))
        for i in range(features.shape[0]):
            out[i] = self.predict_proba(features[i])
        return out

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Most probable class for each instance of a batch."""
        return np.argmax(self.predict_proba_batch(features), axis=1).astype(np.int64)

    def predict_fit_interleaved(
        self, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Prequential test-then-train over a chunk: score row i with the
        model state after rows ``0..i-1``, then learn row i.

        Returns the ``(n, n_classes)`` probability scores.  The default
        adapter replays :meth:`predict_proba` / :meth:`partial_fit` row by
        row, so results are bit-identical to the instance loop; native
        overrides must preserve that contract exactly (it is what lets the
        chunk-exact evaluation mode batch the classifier work).
        """
        features, labels, _ = self._checked_batch(features, labels)
        scores = np.empty((labels.shape[0], self._n_classes))
        for i in range(labels.shape[0]):
            scores[i] = self.predict_proba(features[i])
            self.partial_fit(features[i], int(labels[i]))
        return scores

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget everything learned so far (drift-triggered rebuild)."""


class MajorityClassClassifier(StreamClassifier):
    """Predicts the most frequent class seen so far (sanity-check baseline)."""

    def __init__(self, n_features: int, n_classes: int) -> None:
        super().__init__(n_features, n_classes)
        self._counts = np.zeros(n_classes, dtype=np.float64)

    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        self._counts[int(y)] += weight

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        total = self._counts.sum()
        if total == 0.0:
            return np.full(self._n_classes, 1.0 / self._n_classes)
        return self._counts / total

    def reset(self) -> None:
        self._counts[:] = 0.0


class NoChangeClassifier(StreamClassifier):
    """Predicts the previously observed label (persistence baseline)."""

    def __init__(self, n_features: int, n_classes: int) -> None:
        super().__init__(n_features, n_classes)
        self._last_label: int | None = None

    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        self._last_label = int(y)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        proba = np.full(self._n_classes, 1.0 / self._n_classes)
        if self._last_label is not None:
            proba = np.full(self._n_classes, 1e-3)
            proba[self._last_label] = 1.0
            proba /= proba.sum()
        return proba

    def reset(self) -> None:
        self._last_label = None
