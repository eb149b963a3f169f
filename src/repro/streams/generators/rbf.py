"""Random RBF (radial basis function) generator.

Instances are drawn from a mixture of Gaussian centroids, each centroid being
assigned to a class.  This is the classic MOA RandomRBF generator; the paper
uses RBF5/RBF10/RBF20 with sudden drifts, which correspond to replacing the
set of centroids (a new ``concept``).  Optionally the centroids can move with
constant speed to model incremental drift (the MOA "RandomRBFDrift" variant).

A row's label is its centroid's class, read from the row's first uniform
alone.  With stationary centroids its features are an elementwise function
of its own uniforms and centroid (Box–Muller offsets around the centre,
clipped to the unit cube), so :meth:`RandomRBFGenerator.generate_block`
draws a block's uniforms and labels and computes a row's features only when
they are asked for: the same bits as computing the whole block, from the
same RNG consumption.  Moving centroids keep the eager default block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.streams import vector_ops as vo
from repro.streams.base import DataStream, SourceBlock, StreamSchema

__all__ = ["RandomRBFGenerator"]


@dataclass
class _Centroid:
    centre: np.ndarray
    class_label: int
    std_dev: float
    weight: float
    direction: np.ndarray


class _CentroidBlock(SourceBlock):
    """Rows drawn around stationary centroids, features computed on demand.

    Holds each row's uniforms and centroid index plus the centroid arrays of
    the concept they were drawn under (a concept switch replaces those
    arrays, never mutates them).
    """

    def __init__(
        self,
        uniforms: np.ndarray,
        centroids: np.ndarray,
        labels: np.ndarray,
        centres: np.ndarray,
        std_devs: np.ndarray,
    ) -> None:
        self.labels = labels
        self.uniforms = uniforms
        self.centroids = centroids
        self._centres = centres
        self._std_devs = std_devs

    def features(self, rows: "np.ndarray | slice") -> np.ndarray:
        idx = self.centroids[rows]
        offsets = vo.normals_from_uniform(
            self.uniforms[rows, 1:], self._centres.shape[1]
        )
        return np.clip(
            self._centres[idx] + offsets * self._std_devs[idx, None], 0.0, 1.0
        )


class RandomRBFGenerator(DataStream):
    """Stream generated from randomly placed class-labelled Gaussian centroids.

    Parameters
    ----------
    n_classes, n_features:
        Shape of the problem.
    n_centroids:
        Number of Gaussian centroids; each is assigned a class label so that
        every class owns at least one centroid.
    centroid_speed:
        Per-instance displacement of each centroid along a random unit vector
        (0 = stationary concept; >0 = incremental drift).
    concept:
        Index controlling the centroid layout; switching concepts replaces all
        centroids (sudden real drift).
    """

    def __init__(
        self,
        n_classes: int = 5,
        n_features: int = 20,
        n_centroids: int = 50,
        centroid_speed: float = 0.0,
        concept: int = 0,
        seed: int | None = None,
        name: str | None = None,
    ) -> None:
        if n_centroids < n_classes:
            raise ValueError("n_centroids must be >= n_classes")
        schema = StreamSchema(
            n_features=n_features,
            n_classes=n_classes,
            name=name or f"rbf{n_classes}",
        )
        super().__init__(schema, seed)
        self._n_centroids = n_centroids
        self._centroid_speed = centroid_speed
        self._concept = concept
        self._centroids: list[_Centroid] = []
        self._init_concept(concept)

    def _init_concept(self, concept: int) -> None:
        concept_rng = np.random.default_rng(11_000 + concept)
        self._centroids = []
        for idx in range(self._n_centroids):
            centre = concept_rng.uniform(0.0, 1.0, size=self.n_features)
            # Guarantee every class has at least one centroid.
            label = idx % self.n_classes if idx < self.n_classes else int(
                concept_rng.integers(self.n_classes)
            )
            std_dev = concept_rng.uniform(0.02, 0.12)
            weight = concept_rng.uniform(0.2, 1.0)
            direction = concept_rng.normal(size=self.n_features)
            direction /= np.linalg.norm(direction) + 1e-12
            self._centroids.append(
                _Centroid(centre, label, std_dev, weight, direction)
            )
        weights = np.array([c.weight for c in self._centroids])
        self._probs = weights / weights.sum()
        self._refresh_centroid_arrays()

    def _refresh_centroid_arrays(self) -> None:
        """Dense views of the centroid list used by the vectorized batch path."""
        self._centres = np.stack([c.centre for c in self._centroids])
        self._std_devs = np.array([c.std_dev for c in self._centroids])
        self._labels = np.array(
            [c.class_label for c in self._centroids], dtype=np.int64
        )

    @property
    def concept(self) -> int:
        return self._concept

    def set_concept(self, concept: int) -> None:
        """Replace every centroid — a sudden real drift on all classes."""
        self._concept = concept
        self._init_concept(concept)

    def restart(self) -> None:
        super().restart()
        # Moving centroids (centroid_speed > 0) go back to where they started.
        self._init_concept(self._concept)

    def _snapshot_extra(self) -> dict:
        # Centroids move during generation when centroid_speed > 0; their
        # std-devs/labels/weights stay concept-derived and are rebuilt by
        # set_concept on restore.
        return {"centres": self._centres}

    def _restore_extra(self, extra: dict) -> None:
        centres = extra["centres"]
        for i, centroid in enumerate(self._centroids):
            centroid.centre = centres[i].copy()
        self._refresh_centroid_arrays()

    def centroids_of_class(self, label: int) -> list[np.ndarray]:
        """Return the centres currently assigned to ``label`` (for inspection)."""
        return [c.centre.copy() for c in self._centroids if c.class_label == label]

    def _centroid_block(self, n: int) -> _CentroidBlock:
        """Draw ``n`` rows' uniforms and centroids; no features yet."""
        u = self._rng.random((n, 1 + vo.n_normal_columns(self.n_features)))
        idx = vo.categorical_from_uniform(u[:, 0], self._probs)
        return _CentroidBlock(
            u, idx, self._labels[idx], self._centres, self._std_devs
        )

    def generate_block(self, n: int) -> SourceBlock:
        if self._centroid_speed > 0.0:
            return super().generate_block(n)
        block = self._centroid_block(n)
        self._position += n
        return block

    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        block = self._centroid_block(n)
        if self._centroid_speed > 0.0:
            # Incremental drift moves the sampled centroid after every draw,
            # a sequential recurrence; iterate, but reuse the pre-drawn
            # uniform block so the RNG consumption stays batch-invariant.
            offsets = vo.normals_from_uniform(block.uniforms[:, 1:], self.n_features)
            features = np.empty(offsets.shape)
            for i, c in enumerate(block.centroids.tolist()):
                centroid = self._centroids[c]
                features[i] = np.clip(
                    centroid.centre + offsets[i] * centroid.std_dev, 0.0, 1.0
                )
                centroid.centre = np.clip(
                    centroid.centre + centroid.direction * self._centroid_speed,
                    0.0,
                    1.0,
                )
            self._refresh_centroid_arrays()
            return features, block.labels
        return block.features(slice(None)), block.labels
