"""Online Gaussian naive Bayes classifier.

Per-class, per-feature running means and variances (Welford's algorithm) give
a fully incremental Gaussian naive Bayes model — a light-weight baseline used
in tests, examples, and as an alternative leaf model for the perceptron tree.

Its chunk-exact kernel replays the per-class chains in lock-step through the
shared :func:`~repro.classifiers.welford.replay_welford`, one iteration per
row of the chunk's largest class, and scores every row from the chain states
it gathers; :meth:`GaussianNaiveBayes.predict_proba` and
:meth:`GaussianNaiveBayes.partial_fit` stay the reference.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import StreamClassifier
from repro.classifiers.welford import flat_states, replay_welford

__all__ = ["GaussianNaiveBayes"]

_MIN_VARIANCE = 1e-6


class GaussianNaiveBayes(StreamClassifier):
    """Incremental Gaussian naive Bayes with additive-smoothed priors."""

    def __init__(self, n_features: int, n_classes: int, prior_smoothing: float = 1.0) -> None:
        super().__init__(n_features, n_classes)
        if prior_smoothing < 0.0:
            raise ValueError("prior_smoothing must be >= 0")
        self._prior_smoothing = prior_smoothing
        self._init_state()

    def _init_state(self) -> None:
        self._counts = np.zeros(self._n_classes, dtype=np.float64)
        self._means = np.zeros((self._n_classes, self._n_features))
        self._m2 = np.zeros((self._n_classes, self._n_features))

    def reset(self) -> None:
        self._init_state()

    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        """Weighted Welford update; a row of weight 0 leaves the model as it
        is (on an unseen class it would divide 0 by 0)."""
        if not weight >= 0.0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        if weight == 0.0:
            return
        x = np.asarray(x, dtype=np.float64)
        y = int(y)
        self._counts[y] += weight
        delta = x - self._means[y]
        self._means[y] += weight * delta / self._counts[y]
        self._m2[y] += weight * delta * (x - self._means[y])

    def partial_fit_batch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Vectorized batch update via per-class moment merging.

        Uses the Chan/parallel-Welford combination formula per class, which is
        mathematically identical to replaying the batch instance by instance
        (per-class moments are independent of the interleaving) up to float
        rounding.
        """
        features, labels, weights = self._checked_batch(features, labels, weights)
        if weights is not None and not np.all(weights >= 0.0):
            raise ValueError("weights must be >= 0")
        for label in np.unique(labels):
            mask = labels == label
            class_rows = features[mask]
            if weights is None:
                # Unweighted fast path (the batch-mode hot loop): the moment
                # sums need no per-row weight broadcasts.
                w_sum = float(class_rows.shape[0])
                batch_mean = class_rows.sum(axis=0) / w_sum
                centred = class_rows - batch_mean
                centred *= centred
                batch_m2 = centred.sum(axis=0)
            else:
                w = weights[mask]
                w_sum = float(w.sum())
                if w_sum <= 0.0:
                    continue
                weighted = w[:, None] * class_rows
                batch_mean = weighted.sum(axis=0) / w_sum
                batch_m2 = np.sum(
                    w[:, None] * (class_rows - batch_mean) ** 2, axis=0
                )
            count = self._counts[label]
            total = count + w_sum
            delta = batch_mean - self._means[label]
            self._means[label] += delta * (w_sum / total)
            self._m2[label] += batch_m2 + delta**2 * (count * w_sum / total)
            self._counts[label] = total

    def predict_proba_batch(self, features: np.ndarray) -> np.ndarray:
        """Fully vectorized posterior for a batch, shape ``(n, n_classes)``."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        total = self._counts.sum()
        priors = (self._counts + self._prior_smoothing) / (
            total + self._prior_smoothing * self._n_classes
        )
        variance = np.maximum(
            self._m2 / np.maximum(self._counts[:, None], 1.0), _MIN_VARIANCE
        )
        # The x-independent normalisation term is reduced per class once, and
        # the quadratic form runs class by class as a matrix-vector product —
        # the per-class (n, F) temporaries stay cache-resident where one
        # (n, C, F) einsum pass spills.
        inv_variance = 1.0 / variance
        log_norm = np.log(2.0 * np.pi * variance).sum(axis=1)
        quad = np.empty((features.shape[0], self._n_classes))
        for label in range(self._n_classes):
            diff = features - self._means[label]
            diff *= diff
            quad[:, label] = diff @ inv_variance[label]
        log_likelihoods = -0.5 * (log_norm[None, :] + quad)
        # Mirror the per-instance guards for unseen / single-instance classes.
        log_likelihoods[:, self._counts == 0.0] = -1e6
        log_likelihoods[:, (self._counts > 0.0) & (self._counts < 2.0)] = 0.0
        log_posterior = np.log(priors)[None] + log_likelihoods
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        posterior = np.exp(log_posterior)
        return posterior / posterior.sum(axis=1, keepdims=True)

    def predict_fit_interleaved(
        self, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Bit-exact vectorized test-then-train over a chunk.

        Row ``i`` is scored with the model state after rows ``0..i-1`` and
        then learned, exactly like the per-instance loop.  The class chains
        advance only on their own rows, so :func:`replay_welford` replays
        them in lock-step, keeping every intermediate state; the variance and
        log-normaliser are computed once per chain state, and each row
        *gathers* the states its prediction needs.  Every expression mirrors
        :meth:`predict_proba` / :meth:`partial_fit`, and elementwise ufuncs
        and last-axis reductions give the same bits whatever the array
        shape, so the scores and the final moments equal the instance loop's
        down to the last bit.
        """
        features, labels, _ = self._checked_batch(features, labels)
        n_classes = self._n_classes
        if labels.shape[0] == 0:
            return np.empty((0, n_classes))
        chains = replay_welford(
            self._counts, self._means, self._m2, features, labels, n_classes
        )

        # Once per chain state: the divisor 1.0 keeps the <2-count states
        # finite (their likelihoods are overwritten by the guards below).
        k, chain, start = flat_states(chains.sizes)
        counts = chains.count[k, chain]
        divisor = np.where(counts < 2.0, 1.0, counts)
        variance = np.maximum(chains.m2[k, chain] / divisor[:, None], _MIN_VARIANCE)
        log_norm = np.log(2.0 * np.pi * variance)

        # exclusive[i, c]: class-c rows before row i, the state of class c's
        # chain when row i is scored.
        onehot = labels[:, None] == np.arange(n_classes)
        exclusive = np.cumsum(onehot, axis=0) - onehot
        state = start + exclusive
        counts_g = counts[state]

        total = counts_g.sum(axis=1)
        priors = (counts_g + self._prior_smoothing) / (
            total + self._prior_smoothing * n_classes
        )[:, None]
        diff = features[:, None, :] - chains.mean[exclusive, np.arange(n_classes)]
        log_likelihoods = -0.5 * np.sum(
            log_norm[state] + diff**2 / variance[state], axis=2
        )
        log_likelihoods[counts_g == 0.0] = -1e6
        log_likelihoods[(counts_g > 0.0) & (counts_g < 2.0)] = 0.0
        log_posterior = np.log(priors) + log_likelihoods
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        posterior = np.exp(log_posterior)
        scores = posterior / posterior.sum(axis=1, keepdims=True)

        self._counts[:], self._means[:], self._m2[:] = chains.final()
        return scores

    def _log_likelihood(self, x: np.ndarray) -> np.ndarray:
        log_likelihoods = np.zeros(self._n_classes)
        for label in range(self._n_classes):
            if self._counts[label] < 2.0:
                log_likelihoods[label] = -1e6 if self._counts[label] == 0 else 0.0
                continue
            variance = self._m2[label] / self._counts[label]
            variance = np.maximum(variance, _MIN_VARIANCE)
            diff = x - self._means[label]
            log_likelihoods[label] = float(
                -0.5 * np.sum(np.log(2.0 * np.pi * variance) + diff**2 / variance)
            )
        return log_likelihoods

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        total = self._counts.sum()
        priors = (self._counts + self._prior_smoothing) / (
            total + self._prior_smoothing * self._n_classes
        )
        log_posterior = np.log(priors) + self._log_likelihood(x)
        log_posterior -= log_posterior.max()
        posterior = np.exp(log_posterior)
        return posterior / posterior.sum()
