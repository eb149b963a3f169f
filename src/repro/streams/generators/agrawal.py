"""Multi-class Agrawal generator.

The classic Agrawal generator produces loan-application records (salary,
commission, age, education level, car maker, zip code, house value, years the
house has been owned, loan amount) and labels them with one of ten predefined
binary decision functions.  The paper uses multi-class variants (Aggrawal5,
Aggrawal10, Aggrawal20) with 20/40/80 features and 5/10/20 classes, so this
implementation generalises the original generator in two ways:

* the feature block is replicated as many times as needed to reach the
  requested dimensionality, each block drawn independently;
* the label is produced by binning a continuous *risk score* computed from the
  classic decision-function ingredients into ``n_classes`` quantile bins, which
  yields a genuinely multi-class concept.  Switching ``concept`` changes the
  weighting of the score ingredients, which moves the decision boundaries the
  same way switching Agrawal functions does in MOA.
"""

from __future__ import annotations

import numpy as np

from repro.streams import vector_ops as vo
from repro.streams.base import DataStream, StreamSchema

__all__ = ["AgrawalGenerator"]

_BASE_BLOCK_FEATURES = 9
_N_CONCEPTS = 10


class AgrawalGenerator(DataStream):
    """Multi-class generalisation of the Agrawal loan-application generator.

    Parameters
    ----------
    n_classes:
        Number of classes to produce (>= 2).
    n_features:
        Total number of numeric features.  The canonical 9-feature block is
        tiled (and truncated) to reach this width.
    concept:
        Concept index in ``[0, 10)``.  Each concept uses a different weighting
        of the score ingredients, changing p(y|x).
    perturbation:
        Fraction of feature noise added to each instance (as in MOA).
    seed:
        RNG seed.
    """

    def __init__(
        self,
        n_classes: int = 5,
        n_features: int = 20,
        concept: int = 0,
        perturbation: float = 0.05,
        seed: int | None = None,
        name: str | None = None,
    ) -> None:
        if not 0 <= concept < _N_CONCEPTS:
            raise ValueError(f"concept must be in [0, {_N_CONCEPTS}), got {concept}")
        if not 0.0 <= perturbation <= 1.0:
            raise ValueError("perturbation must be in [0, 1]")
        schema = StreamSchema(
            n_features=n_features,
            n_classes=n_classes,
            name=name or f"agrawal{n_classes}",
        )
        super().__init__(schema, seed)
        self._concept = concept
        self._perturbation = perturbation
        self._init_concept(concept)

    def _init_concept(self, concept: int) -> None:
        # Per-concept ingredient weights: deterministic, independent of the
        # stream seed so that the same concept index always means the same
        # concept (required for scheduled concept drifts to be meaningful).
        concept_rng = np.random.default_rng(1_000 + concept)
        self._weights = concept_rng.uniform(-1.0, 1.0, size=6)
        # Bin edges are placed at the empirical quantiles of the score under
        # this concept so every class is reachable regardless of the weights.
        sample_scores = np.array(
            [self._score(self._sample_block(concept_rng)) for _ in range(2_000)]
        )
        quantiles = np.linspace(0.0, 1.0, self.n_classes + 1)[1:-1]
        self._bin_edges = np.quantile(sample_scores, quantiles)

    @property
    def concept(self) -> int:
        return self._concept

    def set_concept(self, concept: int) -> None:
        """Switch to a different labelling concept (keeps feature distribution)."""
        if not 0 <= concept < _N_CONCEPTS:
            raise ValueError(f"concept must be in [0, {_N_CONCEPTS}), got {concept}")
        self._concept = concept
        self._init_concept(concept)

    def _sample_block(self, rng: np.random.Generator | None = None) -> np.ndarray:
        rng = self._rng if rng is None else rng
        salary = rng.uniform(20_000, 150_000)
        commission = 0.0 if salary >= 75_000 else rng.uniform(10_000, 75_000)
        age = rng.integers(20, 81)
        elevel = rng.integers(0, 5)
        car = rng.integers(1, 21)
        zipcode = rng.integers(0, 9)
        hvalue = (9 - zipcode) * 100_000 * rng.uniform(0.5, 1.5)
        hyears = rng.integers(1, 31)
        loan = rng.uniform(0, 500_000)
        return np.array(
            [salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan],
            dtype=np.float64,
        )

    def _score(self, block: np.ndarray) -> float:
        salary, commission, age, elevel, _car, _zip, hvalue, hyears, loan = block
        ingredients = np.array(
            [
                salary / 150_000.0,
                commission / 75_000.0,
                age / 80.0,
                elevel / 4.0,
                (hvalue / 1_350_000.0) - (loan / 500_000.0),
                hyears / 30.0,
            ]
        )
        raw = float(self._weights @ ingredients)
        return 1.0 / (1.0 + np.exp(-3.0 * raw))

    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        n_features = self.n_features
        n_blocks = int(np.ceil(n_features / _BASE_BLOCK_FEATURES))
        block_cols = _BASE_BLOCK_FEATURES * n_blocks
        perturb_cols = vo.n_normal_columns(n_features) if self._perturbation > 0.0 else 0
        u = self._rng.random((n, block_cols + perturb_cols))
        raw = u[:, :block_cols].reshape(n, n_blocks, _BASE_BLOCK_FEATURES)

        salary = vo.scale_uniform(raw[..., 0], 20_000, 150_000)
        # The commission uniform is always consumed (fixed draw budget per
        # instance); high earners have it zeroed, preserving the original
        # conditional distribution.
        commission = np.where(
            salary >= 75_000, 0.0, vo.scale_uniform(raw[..., 1], 10_000, 75_000)
        )
        age = vo.uniform_integers(raw[..., 2], 20, 81).astype(np.float64)
        elevel = vo.uniform_integers(raw[..., 3], 0, 5).astype(np.float64)
        car = vo.uniform_integers(raw[..., 4], 1, 21).astype(np.float64)
        zipcode = vo.uniform_integers(raw[..., 5], 0, 9).astype(np.float64)
        hvalue = (9.0 - zipcode) * 100_000 * vo.scale_uniform(raw[..., 6], 0.5, 1.5)
        hyears = vo.uniform_integers(raw[..., 7], 1, 31).astype(np.float64)
        loan = vo.scale_uniform(raw[..., 8], 0.0, 500_000)

        blocks = np.stack(
            [salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan],
            axis=-1,
        )  # (n, n_blocks, 9)
        features = blocks.reshape(n, block_cols)[:, :n_features].copy()

        ingredients = np.stack(
            [
                salary[:, 0] / 150_000.0,
                commission[:, 0] / 75_000.0,
                age[:, 0] / 80.0,
                elevel[:, 0] / 4.0,
                (hvalue[:, 0] / 1_350_000.0) - (loan[:, 0] / 500_000.0),
                hyears[:, 0] / 30.0,
            ],
            axis=1,
        )
        raw_scores = np.sum(ingredients * self._weights, axis=1)
        scores = 1.0 / (1.0 + np.exp(-3.0 * raw_scores))
        labels = np.searchsorted(self._bin_edges, scores).astype(np.int64)

        if self._perturbation > 0.0:
            noise = vo.normals_from_uniform(u[:, block_cols:], n_features)
            features = features * (1.0 + noise * self._perturbation)
        return features, labels
