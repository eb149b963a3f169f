"""Online feature scaling for the RBM visible layer.

Restricted Boltzmann Machines expect visible units in [0, 1].  Streaming data
arrives unscaled and its range may itself drift, so the scaler tracks running
minima and maxima (optionally with slow decay towards the recent data range)
and maps features into the unit interval on the fly.

:meth:`OnlineMinMaxScaler.partial_fit_transform` is the scaler's one update:
it widens the tracked range to cover a batch, then scales that batch.  RBM-IM
calls it on the warm-start batch and on every mini-batch after it.
"""

from __future__ import annotations

import numpy as np

from repro.core.snapshot import Snapshotable

__all__ = ["OnlineMinMaxScaler"]


class OnlineMinMaxScaler(Snapshotable):
    """Streaming min-max scaler to the unit interval.

    Parameters
    ----------
    n_features:
        Dimensionality of the feature vectors.
    forget:
        Per-update shrink factor pulling the tracked range towards the most
        recent batch (0 = never forget the historical range).  A small value
        such as 0.001 lets the scaler follow virtual drifts of the feature
        distribution without destabilising the representation.
    """

    def __init__(self, n_features: int, forget: float = 0.0) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if not 0.0 <= forget < 1.0:
            raise ValueError("forget must be in [0, 1)")
        self._n_features = n_features
        self._forget = forget
        self._min = np.full(n_features, np.inf)
        self._max = np.full(n_features, -np.inf)
        self._span = np.ones(n_features)
        self._fitted = False

    def partial_fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Update the tracked range with a batch, then scale it into [0, 1].

        ``X`` is a 2-D float64 array of at least one row; a batch that is
        not ``n_features`` wide is refused with ``ValueError`` before the
        range changes.  Returns a new array.  The range covers the batch
        once updated, so every scaled value lies in [0, 1] without a clip.
        """
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        batch_min = X.min(axis=0)
        batch_max = X.max(axis=0)
        if self._fitted and self._forget > 0.0:
            centre = (self._min + self._max) / 2.0
            self._min += self._forget * (centre - self._min)
            self._max += self._forget * (centre - self._max)
        self._min = np.minimum(self._min, batch_min)
        self._max = np.maximum(self._max, batch_max)
        span = self._max - self._min
        self._span = np.where(span > 1e-12, span, 1.0)
        self._fitted = True
        scaled = X - self._min
        scaled /= self._span
        return scaled
