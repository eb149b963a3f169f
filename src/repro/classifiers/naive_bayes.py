"""Online Gaussian naive Bayes classifier.

Per-class, per-feature running means and variances (Welford's algorithm) give
a fully incremental Gaussian naive Bayes model — a light-weight baseline used
in tests, examples, and as an alternative leaf model for the perceptron tree.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import StreamClassifier

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
        x = np.asarray(x, dtype=np.float64)
        y = int(y)
        # Weighted Welford update.
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
        then learned, exactly like the per-instance loop.  The trick: the
        per-class Welford chains are sequential, but each chain only advances
        on its own class's rows, so the chains are replayed once (recording
        every intermediate state) and each row *gathers* the states its
        prediction needs.  Every expression mirrors :meth:`predict_proba` /
        :meth:`partial_fit` — NumPy elementwise ufuncs and last-axis
        reductions are bitwise shape-independent, so the scores and the final
        moments are identical to the instance loop down to the last bit.
        """
        features, labels, _ = self._checked_batch(features, labels)
        n = labels.shape[0]
        n_classes = self._n_classes
        if n == 0:
            return np.empty((0, n_classes))

        class_range = np.arange(n_classes)
        onehot = labels[:, None] == class_range[None, :]
        per_class_updates = onehot.sum(axis=0)
        # exclusive[i, c]: number of class-c rows strictly before row i =
        # how many updates class c's chain has absorbed when row i is scored.
        exclusive = np.cumsum(onehot, axis=0) - onehot

        max_updates = int(per_class_updates.max())
        counts_hist = np.empty((n_classes, max_updates + 1))
        means_hist = np.empty((n_classes, max_updates + 1, self._n_features))
        m2_hist = np.empty_like(means_hist)
        counts_hist[:, 0] = self._counts
        means_hist[:, 0] = self._means
        m2_hist[:, 0] = self._m2
        for label in range(n_classes):
            k_updates = int(per_class_updates[label])
            if k_updates == 0:
                continue
            rows = features[onehot[:, label]]
            chain_counts = counts_hist[label]
            chain_means = means_hist[label]
            chain_m2 = m2_hist[label]
            count = chain_counts[0]
            mean = chain_means[0]
            m2 = chain_m2[0]
            for k in range(k_updates):
                x = rows[k]
                count = count + 1.0
                delta = x - mean
                mean = mean + delta / count
                m2 = m2 + delta * (x - mean)
                chain_counts[k + 1] = count
                chain_means[k + 1] = mean
                chain_m2[k + 1] = m2

        gather_c = class_range[None, :]
        counts_g = counts_hist[gather_c, exclusive]
        means_g = means_hist[gather_c, exclusive]
        m2_g = m2_hist[gather_c, exclusive]

        # Posterior — same expressions as predict_proba, batched on the
        # leading axis (divisor 1.0 keeps the <2-count rows finite before
        # their likelihoods are overwritten by the guards).
        total = counts_g.sum(axis=1)
        priors = (counts_g + self._prior_smoothing) / (
            total + self._prior_smoothing * n_classes
        )[:, None]
        divisor = np.where(counts_g < 2.0, 1.0, counts_g)
        variance = m2_g / divisor[:, :, None]
        variance = np.maximum(variance, _MIN_VARIANCE)
        diff = features[:, None, :] - means_g
        log_likelihoods = -0.5 * np.sum(
            np.log(2.0 * np.pi * variance) + diff**2 / variance, axis=2
        )
        log_likelihoods[counts_g == 0.0] = -1e6
        log_likelihoods[(counts_g > 0.0) & (counts_g < 2.0)] = 0.0
        log_posterior = np.log(priors) + log_likelihoods
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        posterior = np.exp(log_posterior)
        scores = posterior / posterior.sum(axis=1, keepdims=True)

        self._counts[:] = counts_hist[class_range, per_class_updates]
        self._means[:] = means_hist[class_range, per_class_updates]
        self._m2[:] = m2_hist[class_range, per_class_updates]
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
