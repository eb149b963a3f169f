"""Hypothesis property tests for stream generators and imbalance control."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.generators import (
    HyperplaneGenerator,
    RandomRBFGenerator,
    RandomTreeGenerator,
)
from repro.streams.imbalance import (
    DynamicImbalance,
    RoleSwitchingImbalance,
    StaticImbalance,
    geometric_priors,
)


@settings(max_examples=50, deadline=None)
@given(n_classes=st.integers(2, 30), ratio=st.floats(1.0, 500.0))
def test_geometric_priors_properties(n_classes, ratio):
    priors = geometric_priors(n_classes, ratio)
    assert priors.shape == (n_classes,)
    assert abs(priors.sum() - 1.0) < 1e-9
    assert np.all(priors > 0.0)
    np.testing.assert_allclose(priors.max() / priors.min(), ratio, rtol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    n_classes=st.integers(2, 10),
    min_ratio=st.floats(1.0, 50.0),
    spread=st.floats(0.0, 200.0),
    period=st.integers(10, 5000),
    position=st.integers(0, 100_000),
)
def test_dynamic_imbalance_ratio_within_bounds(
    n_classes, min_ratio, spread, period, position
):
    profile = DynamicImbalance(n_classes, min_ratio, min_ratio + spread, period)
    ratio = profile.imbalance_ratio(position)
    assert min_ratio - 1e-6 <= ratio <= min_ratio + spread + 1e-6
    assert abs(profile.priors(position).sum() - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    n_classes=st.integers(2, 8),
    position=st.integers(0, 50_000),
    switch_period=st.integers(1, 5000),
)
def test_role_switching_priors_are_permutations(n_classes, position, switch_period):
    static = StaticImbalance(n_classes, 40.0)
    switching = RoleSwitchingImbalance(
        n_classes, 40.0, 40.0, period=1000, switch_period=switch_period
    )
    np.testing.assert_allclose(
        np.sort(switching.priors(position)), np.sort(static.priors(0)), rtol=1e-9
    )


@settings(max_examples=15, deadline=None)
@given(
    n_classes=st.integers(2, 8),
    n_features=st.integers(2, 30),
    seed=st.integers(0, 10_000),
)
def test_rbf_generator_always_valid(n_classes, n_features, seed):
    stream = RandomRBFGenerator(
        n_classes=n_classes,
        n_features=n_features,
        n_centroids=max(n_classes, 10),
        seed=seed,
    )
    for instance in stream.take(50):
        assert instance.x.shape == (n_features,)
        assert 0 <= instance.y < n_classes
        assert np.all((instance.x >= 0.0) & (instance.x <= 1.0))


@settings(max_examples=15, deadline=None)
@given(
    n_classes=st.integers(2, 8),
    concept_a=st.integers(0, 20),
    concept_b=st.integers(0, 20),
    seed=st.integers(0, 1000),
)
def test_random_tree_same_concept_same_labels(n_classes, concept_a, concept_b, seed):
    """Two generators on the same concept agree on labels for identical points;
    different concepts are allowed to (and usually do) disagree."""
    gen_a = RandomTreeGenerator(n_classes=n_classes, n_features=5, concept=concept_a, seed=seed)
    gen_b = RandomTreeGenerator(n_classes=n_classes, n_features=5, concept=concept_b, seed=seed)
    points = np.random.default_rng(seed).random((30, 5))
    labels_a = [gen_a._classify(p) for p in points]
    labels_b = [gen_b._classify(p) for p in points]
    if concept_a == concept_b:
        assert labels_a == labels_b


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), mag=st.floats(0.0, 0.05))
def test_hyperplane_restart_is_idempotent(seed, mag):
    stream = HyperplaneGenerator(n_classes=4, n_features=6, mag_change=mag, seed=seed)
    first = [(inst.x.copy(), inst.y) for inst in stream.take(40)]
    stream.restart()
    # Restart rewinds the RNG and the weights mag_change moved.
    second = [(inst.x.copy(), inst.y) for inst in stream.take(40)]
    for (xa, ya), (xb, yb) in zip(first, second):
        np.testing.assert_array_equal(xa, xb)
        assert ya == yb
