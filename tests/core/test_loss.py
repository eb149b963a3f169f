"""Unit tests for the class-balanced (effective number of samples) loss."""

import numpy as np
import pytest

from repro.core.loss import (
    ClassBalancedWeighter,
    class_balanced_weights,
    effective_number,
)


class TestEffectiveNumber:
    def test_zero_beta_gives_indicator(self):
        counts = np.array([0, 1, 100])
        np.testing.assert_allclose(effective_number(counts, 0.0), [0.0, 1.0, 1.0])

    def test_beta_close_to_one_approaches_counts(self):
        counts = np.array([10.0, 100.0])
        effective = effective_number(counts, 0.99999)
        np.testing.assert_allclose(effective, counts, rtol=0.01)

    def test_monotone_in_counts(self):
        counts = np.array([1.0, 5.0, 50.0, 500.0])
        effective = effective_number(counts, 0.99)
        assert np.all(np.diff(effective) > 0)

    def test_bounded_by_asymptote(self):
        effective = effective_number(np.array([1e9]), 0.99)
        assert effective[0] <= 1.0 / (1.0 - 0.99) + 1e-9

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            effective_number(np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            effective_number(np.array([1.0]), -0.1)


class TestClassBalancedWeights:
    def test_minority_gets_larger_weight(self):
        counts = np.array([1000.0, 10.0])
        weights = class_balanced_weights(counts, 0.999)
        assert weights[1] > weights[0]

    def test_normalised_to_unit_mean_over_observed(self):
        counts = np.array([500.0, 50.0, 5.0])
        weights = class_balanced_weights(counts, 0.999)
        assert weights.mean() == pytest.approx(1.0)

    def test_unseen_class_gets_max_observed_weight(self):
        counts = np.array([100.0, 10.0, 0.0])
        weights = class_balanced_weights(counts, 0.99, normalise=False)
        assert weights[2] == pytest.approx(weights[:2].max())

    def test_all_unseen_defaults_to_ones(self):
        weights = class_balanced_weights(np.zeros(3), 0.99)
        np.testing.assert_allclose(weights, 1.0)

    def test_balanced_counts_give_equal_weights(self):
        weights = class_balanced_weights(np.array([50.0, 50.0, 50.0]), 0.999)
        np.testing.assert_allclose(weights, 1.0)


def labels(*counts):
    """int64 labels holding ``counts[m]`` rows of class ``m``."""
    return np.repeat(np.arange(len(counts)), counts).astype(np.int64)


class TestClassBalancedWeighter:
    def test_observe_accumulates_counts(self):
        weighter = ClassBalancedWeighter(3, beta=0.99)
        weighter.observe_weights(np.array([0, 0, 1, 2, 0]))
        np.testing.assert_allclose(weighter.counts, [3.0, 1.0, 1.0])

    def test_instance_weights_follow_imbalance(self):
        weighter = ClassBalancedWeighter(2, beta=0.999)
        batch = labels(900, 10)
        weights = weighter.observe_weights(batch)
        assert weights[-1] / weights[0] > 5.0

    def test_decay_forgets_old_roles(self):
        weighter = ClassBalancedWeighter(2, beta=0.999, decay=0.9)
        weighter.observe_weights(labels(500))
        counts_after_flood = weighter.counts[0]
        for _ in range(100):
            weighter.observe_weights(np.array([1]))
        assert weighter.counts[0] < counts_after_flood * 0.01

    def test_reset(self):
        weighter = ClassBalancedWeighter(2)
        weighter.observe_weights(np.array([0, 1, 1]))
        weighter.reset()
        np.testing.assert_allclose(weighter.counts, 0.0)

    def test_empty_observation_is_noop(self):
        weighter = ClassBalancedWeighter(2)
        weights = weighter.observe_weights(np.array([], dtype=np.int64))
        assert weights.shape == (0,)
        np.testing.assert_allclose(weighter.counts, 0.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ClassBalancedWeighter(1)
        with pytest.raises(ValueError):
            ClassBalancedWeighter(3, beta=1.0)
        with pytest.raises(ValueError):
            ClassBalancedWeighter(3, decay=0.0)


class TestObserveWeightsKnownAnswer:
    """``observe_weights`` returns Eq. 13's weights under the updated running
    counts, ``class_balanced_weights(counts, beta)[labels]``, on the general
    path (a class still unseen) and on the all-classes-seen fast path."""

    @pytest.mark.parametrize("decay", [1.0, 0.9])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.999])
    def test_matches_class_balanced_weights(self, beta, decay):
        rng = np.random.default_rng(13)
        weighter = ClassBalancedWeighter(4, beta=beta, decay=decay)
        counts = np.zeros(4)
        # Class 3 arrives only from the fourth batch, so the first three take
        # the general path and the rest the fast path.
        for batch in range(12):
            n_classes = 3 if batch < 3 else 4
            batch_labels = rng.integers(0, n_classes, size=25).astype(np.int64)
            batch_labels[:n_classes] = np.arange(n_classes)
            counts = counts * decay + np.bincount(batch_labels, minlength=4)
            weights = weighter.observe_weights(batch_labels)
            np.testing.assert_allclose(weighter.counts, counts, rtol=1e-12)
            expected = class_balanced_weights(counts, beta)[batch_labels]
            np.testing.assert_allclose(weights, expected, rtol=1e-12)
        assert weighter._all_seen
