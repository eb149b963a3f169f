"""Online multi-class perceptron with optional cost-sensitive updates.

A one-vs-rest linear model trained with perceptron/logistic-style updates on a
running-standardised feature representation.  It is both a standalone baseline
and the leaf model of the cost-sensitive perceptron tree (the paper's base
classifier).  Its fused test-then-train row step
(:meth:`OnlinePerceptron._predict_fit_row`) is the exact chunk kernel of both.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import StreamClassifier
from repro.core.hotpath import hot_path

__all__ = ["OnlinePerceptron"]


def _softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - scores.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


@hot_path
def _masked_std(
    m2: np.ndarray, count: float, out: np.ndarray, small: np.ndarray
) -> None:
    """``np.where(std > 1e-9, std, 1.0)`` of ``std = sqrt(m2 / count)``, in
    place.  ``small`` is *not* ``std > 1e-9``, which unlike ``std <= 1e-9``
    is also true for NaN."""
    np.divide(m2, count, out=out)
    np.sqrt(out, out=out)
    np.greater(out, 1e-9, out=small)
    np.logical_not(small, out=small)
    np.copyto(out, 1.0, where=small)


class _RowScratch:
    """Buffers of the fused row step, allocated once per chunk and shared by
    every perceptron that one ``predict_fit_interleaved`` call steps."""

    def __init__(self, n_features: int, n_classes: int) -> None:
        self.delta = np.empty(n_features)
        self.centred = np.empty(n_features)
        self.term = np.empty(n_features)
        self.pred_row = np.empty(n_features)
        self.fit_row = np.empty(n_features)
        self.small = np.empty(n_features, dtype=bool)
        # Row 0 scores the prediction, row 1 the fit: one stacked softmax.
        self.scores = np.empty((2, n_classes))
        self.pred_scores = self.scores[0]
        self.fit_scores = self.scores[1]
        self.row_max = np.empty((2, 1))
        self.row_sum = np.empty((2, 1))
        self.target = np.zeros(n_classes)
        self.error = np.empty(n_classes)
        # np.outer(error, row) is exactly error[:, None] * row.
        self.error_column = self.error[:, None]
        self.update = np.empty((n_classes, n_features))


class _FitMemo:
    """What one ``predict_fit_interleaved`` call remembers about a perceptron
    between its rows, instead of recomputing it per row.

    ``std`` is the masked standard deviation of the model's current moments
    (valid while ``_count >= 2``): the one its last fit computed, which is
    exactly what the next prediction on the same model needs.
    ``class_total`` is ``_class_counts.sum()``, exact as a running total
    because every class count is a whole number.  A memo lives for one call,
    so no snapshot ever sees it.
    """

    __slots__ = ("std", "class_total")

    def __init__(self, model: "OnlinePerceptron", scratch: _RowScratch) -> None:
        self.std = np.empty(model.n_features)
        if model._count >= 2:
            _masked_std(model._m2, float(model._count), self.std, scratch.small)
        self.class_total = float(model._class_counts.sum())


class OnlinePerceptron(StreamClassifier):
    """Multi-class online perceptron with running feature standardisation.

    Parameters
    ----------
    learning_rate:
        Step size of the weight updates.
    cost_sensitive:
        When True, each update is additionally weighted by the inverse
        relative frequency of the instance's class, boosting minority-class
        learning (the "cost-sensitive" part of the paper's base classifier).
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        learning_rate: float = 0.1,
        cost_sensitive: bool = True,
        seed: int | None = None,
    ) -> None:
        super().__init__(n_features, n_classes)
        if learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        self._learning_rate = learning_rate
        self._cost_sensitive = cost_sensitive
        self._seed = seed
        self._init_state()

    def _init_state(self) -> None:
        rng = np.random.default_rng(self._seed)
        self._weights = rng.normal(0.0, 0.01, size=(self._n_classes, self._n_features))
        self._bias = np.zeros(self._n_classes)
        self._count = 0
        self._mean = np.zeros(self._n_features)
        self._m2 = np.zeros(self._n_features)
        self._class_counts = np.zeros(self._n_classes, dtype=np.float64)

    def reset(self) -> None:
        self._init_state()

    @property
    def class_counts(self) -> np.ndarray:
        return self._class_counts.copy()

    def _standardise(self, x: np.ndarray, update: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if update:
            self._count += 1
            delta = x - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (x - self._mean)
        if self._count < 2:
            return x - self._mean
        std = np.sqrt(self._m2 / self._count)
        std = np.where(std > 1e-9, std, 1.0)
        return (x - self._mean) / std

    def _class_weight(self, y: int) -> float:
        if not self._cost_sensitive:
            return 1.0
        total = self._class_counts.sum()
        if total <= 0.0 or self._class_counts[y] <= 0.0:
            return 1.0
        frequency = self._class_counts[y] / total
        # Inverse relative frequency, capped to keep updates numerically sane.
        return float(min(1.0 / (self._n_classes * frequency), 100.0))

    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        y = int(y)
        standardised = self._standardise(x, update=True)
        self._class_counts[y] += 1.0
        scores = self._weights @ standardised + self._bias
        probabilities = _softmax(scores)
        target = np.zeros(self._n_classes)
        target[y] = 1.0
        error = target - probabilities
        step = self._learning_rate * weight * self._class_weight(y)
        self._weights += step * np.outer(error, standardised)
        self._bias += step * error

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        standardised = self._standardise(x, update=False)
        scores = self._weights @ standardised + self._bias
        return _softmax(scores)

    # ------------------------------------------------------- exact chunk kernel
    @hot_path
    def _predict_fit_row(
        self,
        x: np.ndarray,
        y: int,
        proba: np.ndarray,
        scratch: _RowScratch,
        memo: _FitMemo,
    ) -> None:
        """Write ``predict_proba(x)`` into ``proba``, then ``partial_fit(x, y)``.

        The same float operations as the two scalar calls, fused: the
        prediction's ``x - mean`` is the fit's Welford delta, the
        prediction divides by ``memo.std``, and both rows share one stacked
        ``(2, C)`` softmax (elementwise ufuncs and last-axis reductions are
        bitwise shape-independent).  Each matrix-vector product stays its own
        2-D x 1-D ``np.dot``: a stacked ``(C, F) @ (F, 2)`` product goes
        through gemm and may sum in another order.  The error is
        ``target - p`` (``1 - p`` and ``-p`` would flip the sign of an
        underflowed zero) and the update is ``(error x row) * step``, never
        ``error * step`` first.
        """
        delta = np.subtract(x, self._mean, out=scratch.delta)
        count = self._count
        if count < 2:
            pred_row = delta
        else:
            pred_row = np.divide(delta, memo.std, out=scratch.pred_row)
        np.dot(self._weights, pred_row, out=scratch.pred_scores)

        count += 1
        self._count = count
        # Dividing by the count as a Python float is the same division, and
        # NumPy takes a faster scalar path for it than for an int.
        term = np.divide(delta, float(count), out=scratch.term)
        np.add(self._mean, term, out=self._mean)
        centred = np.subtract(x, self._mean, out=scratch.centred)
        np.multiply(delta, centred, out=term)
        np.add(self._m2, term, out=self._m2)
        if count < 2:
            fit_row = centred
        else:
            _masked_std(self._m2, float(count), memo.std, scratch.small)
            fit_row = np.divide(centred, memo.std, out=scratch.fit_row)
        class_counts = self._class_counts
        class_counts[y] += 1.0
        memo.class_total += 1.0
        np.dot(self._weights, fit_row, out=scratch.fit_scores)

        scores = scratch.scores
        np.add(scores, self._bias, out=scores)
        scores.max(axis=1, keepdims=True, out=scratch.row_max)
        np.subtract(scores, scratch.row_max, out=scores)
        np.exp(scores, out=scores)
        scores.sum(axis=1, keepdims=True, out=scratch.row_sum)
        np.divide(scores, scratch.row_sum, out=scores)
        np.copyto(proba, scratch.pred_scores)

        target = scratch.target
        target[y] = 1.0
        error = np.subtract(target, scratch.fit_scores, out=scratch.error)
        target[y] = 0.0
        step = self._learning_rate
        if self._cost_sensitive:
            # _class_weight(y) on the running total; its guards against an
            # empty total or class cannot fire right after the increment.
            frequency = class_counts[y] / memo.class_total
            step *= float(min(1.0 / (self._n_classes * frequency), 100.0))
        update = np.multiply(scratch.error_column, fit_row, out=scratch.update)
        np.multiply(update, step, out=update)
        np.add(self._weights, update, out=self._weights)
        np.multiply(error, step, out=error)
        np.add(self._bias, error, out=self._bias)

    @hot_path
    def predict_fit_interleaved(
        self, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Bit-exact test-then-train over a chunk, one fused
        :meth:`_predict_fit_row` per row."""
        features, labels, _ = self._checked_batch(features, labels)
        scores = np.empty((labels.shape[0], self._n_classes))
        scratch = _RowScratch(self._n_features, self._n_classes)
        memo = _FitMemo(self, scratch)
        for i, y in enumerate(labels.tolist()):
            self._predict_fit_row(features[i], y, scores[i], scratch, memo)
        return scores

    # --------------------------------------------------------- batch interface
    def _standardise_batch(self, features: np.ndarray, update: bool) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if update:
            n = features.shape[0]
            batch_mean = features.mean(axis=0)
            batch_m2 = np.sum((features - batch_mean) ** 2, axis=0)
            total = self._count + n
            delta = batch_mean - self._mean
            self._mean += delta * (n / total)
            self._m2 += batch_m2 + delta**2 * (self._count * n / total)
            self._count = total
        if self._count < 2:
            return features - self._mean
        std = np.sqrt(self._m2 / self._count)
        std = np.where(std > 1e-9, std, 1.0)
        return (features - self._mean) / std

    def partial_fit_batch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Native mini-batch update: one gradient step from the whole batch.

        Unlike the default adapter this applies *mini-batch* semantics — the
        running standardisation is advanced once with the batch moments and
        every row's gradient is computed against the same weights — which is
        the standard mini-batch SGD formulation rather than a bit-exact replay
        of per-instance updates.
        """
        features, labels, weights = self._checked_batch(features, labels, weights)
        n = labels.shape[0]
        if n == 0:
            return
        standardised = self._standardise_batch(features, update=True)
        self._class_counts += np.bincount(labels, minlength=self._n_classes).astype(
            np.float64
        )
        scores = standardised @ self._weights.T + self._bias
        probabilities = _softmax(scores, axis=1)
        targets = np.zeros_like(probabilities)
        targets[np.arange(n), labels] = 1.0
        errors = targets - probabilities
        steps = self._learning_rate * np.ones(n)
        if weights is not None:
            steps = steps * weights
        if self._cost_sensitive:
            steps = steps * np.array(
                [self._class_weight(int(label)) for label in labels]
            )
        weighted_errors = errors * steps[:, None]
        self._weights += weighted_errors.T @ standardised
        self._bias += weighted_errors.sum(axis=0)

    def predict_proba_batch(self, features: np.ndarray) -> np.ndarray:
        standardised = self._standardise_batch(features, update=False)
        scores = standardised @ self._weights.T + self._bias
        return _softmax(scores, axis=1)
