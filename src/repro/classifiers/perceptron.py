"""Online multi-class perceptron with optional cost-sensitive updates.

A one-vs-rest linear model trained with perceptron/logistic-style updates on a
running-standardised feature representation.  It is both a standalone baseline
and the leaf model of the cost-sensitive perceptron tree (the paper's base
classifier).  :func:`predict_fit_perceptrons` is the exact chunk kernel of
both: it replays the standardisation chains of every perceptron a chunk
touches through the shared lock-step Welford replay, then loops per row only
over the weight recurrence.  The scalar :meth:`OnlinePerceptron.predict_proba`
and :meth:`OnlinePerceptron.partial_fit` stay the reference it is tested
against.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import StreamClassifier
from repro.classifiers.welford import (
    WelfordReplay,
    chain_ranks,
    flat_states,
    replay_welford,
)
from repro.core.hotpath import hot_path

__all__ = ["OnlinePerceptron"]


def _softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - scores.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def standardisation_chains(
    models: list["OnlinePerceptron"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial ``(count, mean, m2)`` of the models' standardisation chains,
    in the layout :func:`replay_welford` takes."""
    return (
        np.array([float(model._count) for model in models]),
        np.array([model._mean for model in models]),
        np.array([model._m2 for model in models]),
    )


def predict_fit_perceptrons(
    models: list["OnlinePerceptron"],
    features: np.ndarray,
    labels: np.ndarray,
    owner: np.ndarray,
    chains: WelfordReplay,
    scores: np.ndarray,
) -> None:
    """Test-then-train rows spread over several perceptrons, bit-exactly.

    Row ``i`` belongs to ``models[owner[i]]``: it is scored into
    ``scores[i]`` as that model's :meth:`~OnlinePerceptron.predict_proba`
    would score it, then learned as its ``partial_fit(x, y)`` would learn
    it.  The models share their learning rate and cost sensitivity (the
    leaves of one tree do); the standalone perceptron is the one-model case.

    ``chains`` is the caller's :func:`replay_welford` of the rows into the
    models' standardisation chains (:func:`standardisation_chains`), which
    come first; the replay may carry further chains and rows after them in
    the same lock-step loop (the tree's leaf statistics), which this
    ignores.

    Phase 1 computes, once for all rows, every value that does not depend on
    the previous row's weights: with the replayed chains, the masked std of
    every chain state, each row's prediction and fit rows, and the
    cost-sensitive step sizes from the running class counts.  Phase 2
    (:func:`_weight_recurrence`) loops per row only over the weight
    recurrence.  Elementwise ufuncs and last-axis reductions give the same
    bits whatever the array shape.
    """
    first = models[0]
    n_classes = first.n_classes
    n_models = len(models)
    # np.where(std > 1e-9, std, 1.0) of std = sqrt(m2 / count), once per
    # chain state; a state with fewer than two rows does not divide, and
    # x / 1.0 is x.
    k, chain, start = flat_states(chains.sizes[:n_models])
    count = chains.count[k, chain][:, None]
    few = count < 2.0
    std = np.sqrt(chains.m2[k, chain] / np.where(few, 1.0, count))
    std = np.where((std > 1e-9) & ~few, std, 1.0)
    # Each row centred on its chain's mean before and after its update: the
    # prediction's and the fit's x - mean.
    rank = chains.rank[: labels.shape[0]]
    before = start[owner] + rank
    pred_rows = (features - chains.mean[rank, owner]) / std[before]
    fit_rows = (features - chains.mean[rank + 1, owner]) / std[before + 1]

    # Every class count is a whole number, so the running counts are exact.
    pair_rank, pair_sizes = chain_ranks(
        owner * n_classes + labels, n_models * n_classes
    )
    class_counts = np.array([model._class_counts for model in models])
    steps = np.full(labels.shape[0], first._learning_rate)
    if first._cost_sensitive:
        # _class_weight(y) right after the row's class count increment, when
        # its guards against an empty total or class cannot fire.
        frequency = (class_counts[owner, labels] + (pair_rank + 1.0)) / (
            class_counts.sum(axis=1)[owner] + (rank + 1.0)
        )
        steps *= np.minimum(1.0 / (n_classes * frequency), 100.0)

    pred_scores = np.empty((labels.shape[0], n_classes))
    owners = owner.tolist()
    _weight_recurrence(
        [models[g]._weights for g in owners],
        [models[g]._bias for g in owners],
        pred_rows,
        fit_rows,
        (labels[:, None] == np.arange(n_classes)).astype(np.float64),
        steps[:, None],
        pred_scores,
    )
    scores[:] = _softmax(pred_scores, axis=1)

    count, mean, m2 = chains.final()
    pair_sizes = pair_sizes.reshape(n_models, n_classes)
    for g, model in enumerate(models):
        model._count = int(count[g])
        model._mean[:] = mean[g]
        model._m2[:] = m2[g]
        model._class_counts += pair_sizes[g]


@hot_path
def _weight_recurrence(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    pred_rows: np.ndarray,
    fit_rows: np.ndarray,
    targets: np.ndarray,
    steps: np.ndarray,
    pred_scores: np.ndarray,
) -> None:
    """The per-row loop: each row's weights and bias score its prediction
    row (before the softmax, which the caller applies to the whole chunk),
    then take the fit row's update in place.

    The same float operations as :meth:`OnlinePerceptron.partial_fit`.
    Each matrix-vector product stays its own 2-D x 1-D ``np.dot``: a stacked
    ``(C, F) @ (F, 2)`` product goes through gemm and may sum in another
    order.  The error is ``target - p`` (``1 - p`` and ``-p`` would flip the
    sign of an underflowed zero) and the update is ``(error x row) * step``.
    """
    n_classes, n_features = pred_scores.shape[1], fit_rows.shape[1]
    fit = np.empty(n_classes)
    # 0-d reduction outputs and (1,) step rows broadcast faster than
    # keepdims outputs and Python floats; the values are the same.
    top = np.empty(())
    total = np.empty(())
    error = np.empty(n_classes)
    # np.outer(error, row) is exactly error[:, None] * row.
    error_column = error[:, None]
    update = np.empty((n_classes, n_features))
    for w, b, pred_row, fit_row, target, step, score in zip(
        weights, biases, pred_rows, fit_rows, targets, steps, pred_scores
    ):
        np.dot(w, pred_row, out=score)
        np.add(score, b, out=score)
        np.dot(w, fit_row, out=fit)
        np.add(fit, b, out=fit)
        np.maximum.reduce(fit, out=top)
        np.subtract(fit, top, out=fit)
        np.exp(fit, out=fit)
        np.add.reduce(fit, out=total)
        np.divide(fit, total, out=fit)
        np.subtract(target, fit, out=error)
        np.multiply(error_column, fit_row, out=update)
        np.multiply(update, step, out=update)
        np.add(w, update, out=w)
        np.multiply(error, step, out=error)
        np.add(b, error, out=b)


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
    def predict_fit_interleaved(
        self, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Bit-exact test-then-train over a chunk: the one-model case of
        :func:`predict_fit_perceptrons`."""
        features, labels, _ = self._checked_batch(features, labels)
        scores = np.empty((labels.shape[0], self._n_classes))
        if labels.shape[0]:
            owner = np.zeros(labels.shape[0], dtype=np.intp)
            chains = replay_welford(
                *standardisation_chains([self]), features, owner, 1
            )
            predict_fit_perceptrons([self], features, labels, owner, chains, scores)
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
