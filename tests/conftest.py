"""Shared fixtures for the test suite.

Helpers that test modules import by name live in plain modules beside this
file (``error_streams.py``), not here: every ``conftest.py`` outside a
package is imported as the top-level module ``conftest``, so
``from conftest import ...`` resolves to whichever one pytest loaded last.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams.base import Instance, ListStream, StreamSchema
from repro.streams.generators import RandomRBFGenerator


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_schema() -> StreamSchema:
    return StreamSchema(n_features=3, n_classes=3, name="small")


@pytest.fixture
def tiny_list_stream() -> ListStream:
    rng = np.random.default_rng(0)
    instances = [
        Instance(x=rng.random(4), y=int(rng.integers(3))) for _ in range(60)
    ]
    return ListStream(instances, name="tiny")


@pytest.fixture
def rbf_stream() -> RandomRBFGenerator:
    return RandomRBFGenerator(n_classes=4, n_features=8, n_centroids=12, seed=3)


@pytest.fixture
def labelled_batch(rng) -> tuple[np.ndarray, np.ndarray]:
    """A small separable batch: class means at distinct corners of [0,1]^d."""
    n_per_class, n_features, n_classes = 40, 6, 3
    centres = np.array(
        [
            [0.2] * n_features,
            [0.8] * n_features,
            [0.2, 0.8] * (n_features // 2),
        ]
    )
    rows, labels = [], []
    for label, centre in enumerate(centres[:n_classes]):
        rows.append(centre + rng.normal(0.0, 0.05, size=(n_per_class, n_features)))
        labels.extend([label] * n_per_class)
    X = np.clip(np.vstack(rows), 0.0, 1.0)
    y = np.asarray(labels)
    order = rng.permutation(len(y))
    return X[order], y[order]
