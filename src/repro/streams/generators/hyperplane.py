"""Rotating hyperplane generator (multi-class).

The hyperplane generator labels points in the unit hypercube by which side of
a moving hyperplane they fall on.  The multi-class variant used in the paper
(Hyperplane5/10/20) is obtained by slicing the signed distance to the
hyperplane into ``n_classes`` bands.  Incremental/gradual drift is produced by
letting the hyperplane weights move continuously (``mag_change``); a new
``concept`` re-randomises the weights for a sudden switch.
"""

from __future__ import annotations

import numpy as np

from repro.streams import vector_ops as vo
from repro.streams.base import DataStream, StreamSchema

__all__ = ["HyperplaneGenerator"]


class HyperplaneGenerator(DataStream):
    """Multi-class rotating hyperplane stream.

    Parameters
    ----------
    n_classes:
        Number of label bands.
    n_features:
        Dimensionality of the unit hypercube.
    mag_change:
        Magnitude of per-instance weight drift (0 = stationary concept).
    noise:
        Probability of flipping the label to a uniformly random class.
    sigma_direction_change:
        Probability of reversing the drift direction of each weight after an
        instance (as in MOA's ``sigmaPercentage``).
    concept:
        Seed offset for the initial hyperplane weights; switching concepts
        re-randomises the weight vector.
    """

    def __init__(
        self,
        n_classes: int = 5,
        n_features: int = 20,
        mag_change: float = 0.0,
        noise: float = 0.05,
        sigma_direction_change: float = 0.1,
        concept: int = 0,
        seed: int | None = None,
        name: str | None = None,
    ) -> None:
        schema = StreamSchema(
            n_features=n_features,
            n_classes=n_classes,
            name=name or f"hyperplane{n_classes}",
        )
        super().__init__(schema, seed)
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        self._mag_change = mag_change
        self._noise = noise
        self._sigma = sigma_direction_change
        self._concept = concept
        self._init_concept(concept)

    def _init_concept(self, concept: int) -> None:
        concept_rng = np.random.default_rng(7_000 + concept)
        self._weights = concept_rng.uniform(-1.0, 1.0, size=self.n_features)
        self._directions = concept_rng.choice([-1.0, 1.0], size=self.n_features)

    @property
    def concept(self) -> int:
        return self._concept

    def set_concept(self, concept: int) -> None:
        """Switch to a freshly randomised hyperplane (sudden real drift)."""
        self._concept = concept
        self._init_concept(concept)

    def restart(self) -> None:
        super().restart()
        # A drifting hyperplane (mag_change > 0) goes back to where it started.
        self._init_concept(self._concept)

    def _snapshot_extra(self) -> dict:
        # The hyperplane drifts during generation, so the evolved weights
        # (not just the concept they started from) are part of the state.
        return {"weights": self._weights, "directions": self._directions}

    def _restore_extra(self, extra: dict) -> None:
        self._weights = extra["weights"]
        self._directions = extra["directions"]

    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        n_features = self.n_features
        noisy = self._noise > 0.0
        drifting = self._mag_change > 0.0
        noise_cols = 2 if noisy else 0
        drift_cols = n_features if drifting else 0
        u = self._rng.random((n, n_features + noise_cols + drift_cols))
        features = u[:, :n_features].copy()

        if drifting:
            # The hyperplane moves after every instance and the per-weight
            # drift direction can flip; unroll the recurrence with cumulative
            # products/sums so instance i sees the weights as of step i.
            flips = u[:, n_features + noise_cols :] < self._sigma
            signs = np.where(flips, -1.0, 1.0)
            cumulative_signs = np.cumprod(signs, axis=0)
            directions = self._directions * np.vstack(
                [np.ones(n_features), cumulative_signs[:-1]]
            )
            # cumsum seeded with the current weights is a sequential left
            # fold, so the trajectory (and its float rounding) is identical
            # to n per-instance `weights += mag * direction` updates.
            trajectory = np.cumsum(
                np.vstack([self._weights[None, :], self._mag_change * directions]),
                axis=0,
            )
            weights = trajectory[:-1]
            self._weights = trajectory[-1]
            self._directions = self._directions * cumulative_signs[-1]
            norms = np.sum(np.abs(weights), axis=1) + 1e-12
            margins = np.sum(weights * (features - 0.5), axis=1) / norms
        else:
            # Explicit elementwise-multiply-and-reduce rather than a matmul:
            # the reduction pattern (and hence rounding) is then independent
            # of the batch size, keeping batch(n) == n x batch(1) bitwise.
            norm = np.sum(np.abs(self._weights)) + 1e-12
            margins = np.sum((features - 0.5) * self._weights, axis=1) / norm

        # Signed, weight-normalised distance from the hyperplane through the
        # centre of the hypercube, mapped to [0, 1].
        score = np.clip(0.5 + margins, 0.0, 1.0 - 1e-9)
        labels = (score * self.n_classes).astype(np.int64)
        if noisy:
            flip = u[:, n_features] < self._noise
            random_labels = vo.uniform_integers(u[:, n_features + 1], self.n_classes)
            labels = np.where(flip, random_labels, labels)
        return features, labels
