"""Skew-insensitive (class-balanced) loss weighting for RBM-IM.

The paper makes the RBM robust to class imbalance by re-weighting each
instance's contribution to the loss with the *effective number of samples*
(Cui et al., CVPR 2019).  For a class that has been observed ``n_m`` times the
effective number is ``E_m = (1 - beta^n_m) / (1 - beta)`` and the instance
weight is proportional to ``1 / E_m``, i.e. ``(1 - beta) / (1 - beta^n_m)``
(Eq. 13 of the paper).  Minority classes therefore contribute much more per
instance than majority classes, keeping the learned representation (and hence
the reconstruction error used for drift detection) unbiased.

:class:`ClassBalancedWeighter` keeps *running* class counts so the weighting
adapts as the stream's imbalance ratio and class roles evolve, optionally with
exponential decay so outdated counts are forgotten.

Eq. 13 has one implementation, the one CD-k runs:
:meth:`ClassBalancedWeighter.observe_weights`, on top of
:func:`class_balanced_weights` and :func:`effective_number`.
"""

from __future__ import annotations

import numpy as np

from repro.core.snapshot import Snapshotable

__all__ = ["effective_number", "class_balanced_weights", "ClassBalancedWeighter"]


def effective_number(counts: np.ndarray, beta: float) -> np.ndarray:
    """Effective number of samples ``(1 - beta^n) / (1 - beta)`` per class.

    ``beta = 0`` reduces to 1 for every observed class (no re-weighting by
    volume); ``beta -> 1`` approaches the raw counts (inverse-frequency
    weighting).
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    counts = np.asarray(counts, dtype=np.float64)
    if beta == 0.0:
        return np.where(counts > 0, 1.0, 0.0)
    return (1.0 - np.power(beta, counts)) / (1.0 - beta)


def class_balanced_weights(
    counts: np.ndarray, beta: float, normalise: bool = True
) -> np.ndarray:
    """Per-class weights inversely proportional to the effective sample number.

    Classes that have never been observed receive the maximum weight among the
    observed classes (they are at least as "minority" as the rarest seen
    class).  When ``normalise`` is True the weights are rescaled to average 1
    over the observed classes, so the global learning-rate scale is preserved.
    """
    counts = np.asarray(counts, dtype=np.float64)
    effective = effective_number(counts, beta)
    weights = np.zeros_like(effective)
    observed = effective > 0
    weights[observed] = 1.0 / effective[observed]
    if observed.any():
        weights[~observed] = weights[observed].max()
    else:
        weights[:] = 1.0
    if normalise and observed.any():
        weights = weights / weights[observed].mean()
    return weights


class ClassBalancedWeighter(Snapshotable):
    """Running class-balanced instance weighting for streaming data.

    Parameters
    ----------
    n_classes:
        Number of classes in the stream.
    beta:
        Effective-number hyper-parameter in ``[0, 1)``; 0.999 by default,
        following Cui et al.
    decay:
        Optional exponential decay applied to the running class counts before
        each update, letting the weighting follow changing imbalance ratios
        and class-role switches.  ``1.0`` disables forgetting.
    """

    def __init__(
        self, n_classes: int, beta: float = 0.999, decay: float = 1.0
    ) -> None:
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self._n_classes = n_classes
        self._beta = beta
        self._decay = decay
        self._counts = np.zeros(n_classes, dtype=np.float64)
        # Sticky: counts can only grow (decay never zeroes a positive count),
        # so once every class has been seen the check short-circuits forever.
        self._all_seen = False
        self._weight_scratch = np.empty(n_classes)

    _SNAPSHOT_EXCLUDE = frozenset({"_weight_scratch"})

    def _after_restore(self) -> None:
        self._weight_scratch = np.empty(self._n_classes)

    @property
    def counts(self) -> np.ndarray:
        """Running (possibly decayed) per-class observation counts."""
        return self._counts.copy()

    def observe_weights(self, labels: np.ndarray) -> np.ndarray:
        """Count a batch of labels, then return their Eq. 13 weights.

        Assumes the caller already validated the labels.  Once every class
        has been seen, the weights reduce to ``(1/E_m) / mean(1/E)`` — the
        ``(1 - beta)`` factor cancels under normalisation — which needs a
        handful of ufunc calls instead of the general masked computation.
        """
        if self._decay < 1.0:
            self._counts *= self._decay
        self._counts += np.bincount(labels, minlength=self._n_classes)
        counts = self._counts
        if not self._all_seen:
            if not counts.all():
                return class_balanced_weights(counts, self._beta)[labels]
            self._all_seen = True
        if self._beta == 0.0:
            return class_balanced_weights(counts, self._beta)[labels]
        buf = self._weight_scratch
        np.power(self._beta, counts, out=buf)
        np.subtract(1.0, buf, out=buf)
        np.reciprocal(buf, out=buf)
        buf /= buf.mean()
        return buf[labels]

    def reset(self) -> None:
        self._counts[:] = 0.0
        self._all_seen = False
