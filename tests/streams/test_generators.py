"""Unit tests for every synthetic stream generator."""

import numpy as np
import pytest

from repro.streams.generators import (
    AgrawalGenerator,
    HyperplaneGenerator,
    RandomRBFGenerator,
    RandomTreeGenerator,
    SEAGenerator,
)

ALL_GENERATORS = [
    lambda seed: AgrawalGenerator(n_classes=5, n_features=20, seed=seed),
    lambda seed: HyperplaneGenerator(n_classes=5, n_features=10, seed=seed),
    lambda seed: RandomRBFGenerator(n_classes=4, n_features=8, seed=seed),
    lambda seed: RandomTreeGenerator(n_classes=4, n_features=6, seed=seed),
    lambda seed: SEAGenerator(n_classes=3, seed=seed),
]


@pytest.mark.parametrize("factory", ALL_GENERATORS)
class TestGeneratorContract:
    """Properties every generator must satisfy."""

    def test_feature_dimension_matches_schema(self, factory):
        stream = factory(0)
        for instance in stream.take(50):
            assert instance.x.shape == (stream.n_features,)

    def test_labels_within_schema(self, factory):
        stream = factory(0)
        labels = {inst.y for inst in stream.take(300)}
        assert min(labels) >= 0
        assert max(labels) < stream.n_classes

    def test_deterministic_for_fixed_seed(self, factory):
        a = factory(42)
        b = factory(42)
        for inst_a, inst_b in zip(a.take(40), b.take(40)):
            np.testing.assert_array_equal(inst_a.x, inst_b.x)
            assert inst_a.y == inst_b.y

    def test_restart_reproduces_sequence(self, factory):
        stream = factory(7)
        first = [(inst.x.copy(), inst.y) for inst in stream.take(30)]
        stream.restart()
        second = [(inst.x.copy(), inst.y) for inst in stream.take(30)]
        for (xa, ya), (xb, yb) in zip(first, second):
            np.testing.assert_array_equal(xa, xb)
            assert ya == yb

    def test_finite_values(self, factory):
        stream = factory(3)
        for instance in stream.take(100):
            assert np.all(np.isfinite(instance.x))


class TestAgrawal:
    def test_produces_all_classes_eventually(self):
        stream = AgrawalGenerator(n_classes=5, n_features=20, seed=1)
        labels = {inst.y for inst in stream.take(3000)}
        assert labels == set(range(5))

    def test_concept_switch_changes_labelling(self):
        base = AgrawalGenerator(n_classes=5, n_features=20, concept=0, seed=5)
        shifted = AgrawalGenerator(n_classes=5, n_features=20, concept=3, seed=5)
        base_labels = [inst.y for inst in base.take(500)]
        shifted_labels = [inst.y for inst in shifted.take(500)]
        assert base_labels != shifted_labels

    def test_invalid_concept_rejected(self):
        with pytest.raises(ValueError):
            AgrawalGenerator(concept=10)
        stream = AgrawalGenerator(seed=0)
        with pytest.raises(ValueError):
            stream.set_concept(-1)

    def test_invalid_perturbation_rejected(self):
        with pytest.raises(ValueError):
            AgrawalGenerator(perturbation=1.5)

    def test_respects_requested_dimensionality(self):
        stream = AgrawalGenerator(n_classes=5, n_features=37, seed=0)
        assert stream.next_instance().x.shape == (37,)

    @staticmethod
    def _assert_loan_records(block):
        salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan = block.T
        assert np.all((salary >= 20_000) & (salary <= 150_000))
        # High earners get no commission; everyone else gets one.
        np.testing.assert_array_equal(commission == 0.0, salary >= 75_000)
        low = salary < 75_000
        assert np.all((commission[low] >= 10_000) & (commission[low] <= 75_000))
        for column, low_int, high_int in (
            (age, 20, 80), (elevel, 0, 4), (car, 1, 20), (zipcode, 0, 8), (hyears, 1, 30)
        ):
            np.testing.assert_array_equal(column, np.round(column))
            assert column.min() >= low_int and column.max() <= high_int
        house_scale = (9.0 - zipcode) * 100_000
        assert np.all((hvalue >= 0.5 * house_scale) & (hvalue <= 1.5 * house_scale))
        assert np.all((loan >= 0.0) & (loan <= 500_000))

    def test_unperturbed_features_are_loan_records(self):
        stream = AgrawalGenerator(n_classes=3, n_features=9, perturbation=0.0, seed=4)
        features, _ = stream.generate_batch(2000)
        self._assert_loan_records(features)

    def test_feature_block_is_tiled_and_truncated(self):
        """20 features are two whole, independently drawn 9-feature records
        plus the first two fields (salary, commission) of a third."""
        stream = AgrawalGenerator(n_classes=3, n_features=20, perturbation=0.0, seed=4)
        features, _ = stream.generate_batch(1000)
        self._assert_loan_records(features[:, 0:9])
        self._assert_loan_records(features[:, 9:18])
        assert not np.array_equal(features[:, 0:9], features[:, 9:18])
        salary, commission = features[:, 18], features[:, 19]
        assert np.all((salary >= 20_000) & (salary <= 150_000))
        np.testing.assert_array_equal(commission == 0.0, salary >= 75_000)

    def test_label_bins_the_risk_score_of_the_first_block(self):
        """The batch kernel labels each row as the scalar ``_score`` of its
        first record, cut at the concept's quantile bin edges."""
        stream = AgrawalGenerator(n_classes=5, n_features=20, perturbation=0.0, seed=6)
        features, labels = stream.generate_batch(500)
        scores = np.array([stream._score(row[:9]) for row in features])
        np.testing.assert_array_equal(
            labels, np.searchsorted(stream._bin_edges, scores)
        )

    @pytest.mark.parametrize("concept", range(10))
    def test_quantile_bins_balance_every_concept(self, concept):
        """Bin edges sit at the score quantiles, so every concept spreads its
        rows about evenly over the classes whatever its weights."""
        stream = AgrawalGenerator(n_classes=5, n_features=20, concept=concept, seed=3)
        _, labels = stream.generate_batch(3000)
        shares = np.bincount(labels, minlength=5) / labels.size
        assert np.all((shares > 0.14) & (shares < 0.26)), shares

    def test_set_concept_relabels_the_same_features(self):
        base = AgrawalGenerator(n_classes=5, n_features=20, seed=8)
        switched = AgrawalGenerator(n_classes=5, n_features=20, seed=8)
        switched.set_concept(4)
        base_x, base_y = base.generate_batch(400)
        switched_x, switched_y = switched.generate_batch(400)
        np.testing.assert_array_equal(base_x, switched_x)
        assert not np.array_equal(base_y, switched_y)


class TestHyperplane:
    def test_stationary_when_mag_change_zero(self):
        stream = HyperplaneGenerator(n_classes=3, n_features=5, mag_change=0.0, seed=2)
        weights_before = stream._weights.copy()
        stream.take(200)
        np.testing.assert_array_equal(weights_before, stream._weights)

    def test_weights_move_under_mag_change(self):
        stream = HyperplaneGenerator(n_classes=3, n_features=5, mag_change=0.01, seed=2)
        weights_before = stream._weights.copy()
        stream.take(200)
        assert not np.allclose(weights_before, stream._weights)

    def test_set_concept_rerandomises_weights(self):
        stream = HyperplaneGenerator(n_classes=3, n_features=5, seed=2)
        weights_before = stream._weights.copy()
        stream.set_concept(5)
        assert not np.allclose(weights_before, stream._weights)

    def test_noise_bounds_validated(self):
        with pytest.raises(ValueError):
            HyperplaneGenerator(noise=1.5)

    def test_features_in_unit_cube(self):
        stream = HyperplaneGenerator(n_classes=3, n_features=5, seed=0)
        for instance in stream.take(100):
            assert np.all(instance.x >= 0.0) and np.all(instance.x <= 1.0)

    def test_noiseless_label_is_band_of_normalised_margin(self):
        """Without noise the label is the signed, |w|-normalised distance from
        the hyperplane through the cube's centre, shifted to [0, 1] and cut
        into ``n_classes`` equal bands."""
        stream = HyperplaneGenerator(n_classes=4, n_features=6, noise=0.0, seed=3)
        weights = stream._weights.copy()
        features, labels = stream.generate_batch(1000)
        margins = (features - 0.5) @ weights / np.abs(weights).sum()
        expected = np.floor(np.clip(0.5 + margins, 0.0, 1.0 - 1e-9) * 4)
        np.testing.assert_array_equal(labels, expected.astype(np.int64))
        assert len(set(labels.tolist())) > 1

    def test_drift_without_reversals_moves_weights_linearly(self):
        stream = HyperplaneGenerator(
            n_classes=3, n_features=5, mag_change=0.01,
            sigma_direction_change=0.0, seed=1,
        )
        weights, directions = stream._weights.copy(), stream._directions.copy()
        stream.generate_batch(100)
        np.testing.assert_allclose(
            stream._weights, weights + 100 * 0.01 * directions, atol=1e-12
        )
        np.testing.assert_array_equal(stream._directions, directions)

    def test_reversing_every_step_oscillates_in_place(self):
        """With ``sigma_direction_change=1`` every weight's direction flips
        after each instance, so an even number of steps returns the plane."""
        stream = HyperplaneGenerator(
            n_classes=3, n_features=5, mag_change=0.01,
            sigma_direction_change=1.0, seed=1,
        )
        weights, directions = stream._weights.copy(), stream._directions.copy()
        stream.generate_batch(10)
        np.testing.assert_allclose(stream._weights, weights, atol=1e-12)
        np.testing.assert_array_equal(stream._directions, directions)


class TestRandomRBF:
    def test_every_class_has_a_centroid(self):
        stream = RandomRBFGenerator(n_classes=6, n_features=4, n_centroids=6, seed=1)
        labels = {inst.y for inst in stream.take(2000)}
        assert labels == set(range(6))

    def test_rejects_fewer_centroids_than_classes(self):
        with pytest.raises(ValueError):
            RandomRBFGenerator(n_classes=5, n_centroids=3)

    def test_set_concept_moves_centroids(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=4, seed=1)
        before = stream.centroids_of_class(0)
        stream.set_concept(9)
        after = stream.centroids_of_class(0)
        assert not all(
            np.allclose(b, a) for b, a in zip(before, after) if b.shape == a.shape
        ) or len(before) != len(after)

    def test_centroid_speed_moves_centroids(self):
        stream = RandomRBFGenerator(
            n_classes=3, n_features=4, centroid_speed=0.01, seed=1
        )
        before = [c.centre.copy() for c in stream._centroids]
        stream.take(300)
        after = [c.centre for c in stream._centroids]
        moved = sum(0 if np.allclose(b, a) else 1 for b, a in zip(before, after))
        assert moved > 0

    def test_features_clipped_to_unit_cube(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=4, seed=5)
        for instance in stream.take(200):
            assert np.all(instance.x >= 0.0) and np.all(instance.x <= 1.0)

    def test_stationary_centroids_do_not_move(self):
        stream = RandomRBFGenerator(n_classes=3, n_features=4, seed=1)
        before = [c.centre.copy() for c in stream._centroids]
        stream.generate_batch(300)
        for b, c in zip(before, stream._centroids):
            np.testing.assert_array_equal(b, c.centre)

    def test_moving_centroids_stay_in_unit_cube(self):
        stream = RandomRBFGenerator(
            n_classes=3, n_features=4, n_centroids=6, centroid_speed=0.05, seed=2
        )
        features, _ = stream.generate_batch(2000)
        centres = np.stack([c.centre for c in stream._centroids])
        assert np.all((centres >= 0.0) & (centres <= 1.0))
        assert np.any((centres == 0.0) | (centres == 1.0))  # some hit a face
        assert np.all((features >= 0.0) & (features <= 1.0))

    @pytest.mark.parametrize(
        "n_features, speed", [(20, 0.0), (7, 0.0), (7, 0.01)]
    )
    def test_block_rows_match_generate_batch(self, n_features, speed):
        # generate_block consumes the stream like generate_batch, and the
        # features of any rows of a block, asked for in any order and after
        # later draws, are those rows of generate_batch bit for bit.  Seven
        # features: Box-Muller drops a column.  Moving centroids keep the
        # eager default block.
        def make():
            stream = RandomRBFGenerator(
                n_classes=5, n_features=n_features, centroid_speed=speed, seed=8
            )
            stream.generate_batch(37)
            return stream

        batched, blocked = make(), make()
        drawn = []
        for n in (1, 300, 1_024):
            drawn.append((blocked.generate_block(n), *batched.generate_batch(n)))
            assert blocked.position == batched.position
            assert blocked.snapshot() == batched.snapshot()
        rng = np.random.default_rng(0)
        for block, x, y in drawn:
            n = y.shape[0]
            np.testing.assert_array_equal(block.labels, y)
            for rows in (
                rng.permutation(n),
                rng.integers(0, n, size=n // 3 + 1),
                rng.choice(n, size=1),
            ):
                np.testing.assert_array_equal(block.features(rows), x[rows])

    def test_centroid_labels_cover_every_class(self):
        stream = RandomRBFGenerator(n_classes=20, n_features=8, n_centroids=50, seed=3)
        per_class = [len(stream.centroids_of_class(c)) for c in range(20)]
        assert min(per_class) >= 1
        assert sum(per_class) == 50


def _n_leaves(node) -> int:
    if node.is_leaf:
        return 1
    return _n_leaves(node.left) + _n_leaves(node.right)


class TestRandomTree:
    def test_all_classes_reachable(self):
        stream = RandomTreeGenerator(n_classes=5, n_features=6, max_depth=7, seed=2)
        labels = {inst.y for inst in stream.take(4000)}
        assert labels == set(range(5))

    def test_deterministic_labelling_given_features(self):
        stream = RandomTreeGenerator(n_classes=3, n_features=4, noise=0.0, seed=1)
        x = np.array([0.2, 0.6, 0.4, 0.9])
        assert stream._classify(x) == stream._classify(x)

    def test_set_concept_changes_boundaries(self):
        stream = RandomTreeGenerator(n_classes=4, n_features=5, noise=0.0, seed=3)
        points = np.random.default_rng(0).random((300, 5))
        before = [stream._classify(p) for p in points]
        stream.set_concept(8)
        after = [stream._classify(p) for p in points]
        assert before != after

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            RandomTreeGenerator(max_depth=0)

    @pytest.mark.parametrize(
        "n_classes, n_features, max_depth", [(2, 3, 1), (4, 6, 6), (10, 12, 8)]
    )
    def test_batch_routing_matches_scalar_classify(
        self, n_classes, n_features, max_depth
    ):
        """The per-node index-mask router labels a batch exactly as routing
        each row alone through the reference ``_classify``."""
        stream = RandomTreeGenerator(
            n_classes=n_classes, n_features=n_features, max_depth=max_depth, seed=5
        )
        features, labels = stream.generate_batch(1500)
        np.testing.assert_array_equal(
            labels, [stream._classify(row) for row in features]
        )

    def test_noise_replaces_labels_at_the_configured_rate(self):
        """A noisy row draws a uniform class, so with 4 classes a fraction
        ``0.4 * 3/4 = 0.3`` of labels differ from the tree's."""
        stream = RandomTreeGenerator(n_classes=4, n_features=5, noise=0.4, seed=6)
        features, labels = stream.generate_batch(4000)
        clean = np.array([stream._classify(row) for row in features])
        assert 0.27 < np.mean(labels != clean) < 0.33

    def test_zero_leaf_fraction_grows_a_full_tree(self):
        stream = RandomTreeGenerator(
            n_classes=3, n_features=4, max_depth=4, leaf_fraction=0.0, seed=0
        )
        assert _n_leaves(stream._root) == 2**4

    def test_depth_one_tree_is_a_single_split(self):
        stream = RandomTreeGenerator(n_classes=5, n_features=4, max_depth=1, seed=0)
        assert _n_leaves(stream._root) == 2
        _, labels = stream.generate_batch(500)
        assert len(set(labels.tolist())) == 2


class TestSEA:
    def test_two_class_default_boundary(self):
        stream = SEAGenerator(n_classes=2, concept=0, noise=0.0, seed=1)
        for instance in stream.take(300):
            expected = int(instance.x[0] + instance.x[1] > 10.0)
            assert instance.y == expected

    def test_concept_changes_threshold(self):
        a = SEAGenerator(n_classes=2, concept=0, noise=0.0, seed=9)
        b = SEAGenerator(n_classes=2, concept=3, noise=0.0, seed=9)
        labels_a = [inst.y for inst in a.take(400)]
        labels_b = [inst.y for inst in b.take(400)]
        assert labels_a != labels_b

    def test_invalid_concept(self):
        with pytest.raises(ValueError):
            SEAGenerator(concept=4)

    def test_requires_two_features(self):
        with pytest.raises(ValueError):
            SEAGenerator(n_features=1)

    @pytest.mark.parametrize("concept, offset", [(0, 0.0), (1, 1.0), (2, -1.0), (3, 2.0)])
    def test_noiseless_bands_follow_concept_offset(self, concept, offset):
        """``x1 + x2`` in [0, 20] is cut into ``n_classes`` equal bands whose
        edges the concept shifts by its offset."""
        stream = SEAGenerator(n_classes=4, concept=concept, noise=0.0, seed=2)
        features, labels = stream.generate_batch(1000)
        total = features[:, 0] + features[:, 1]
        edges = np.array([5.0, 10.0, 15.0]) + offset
        np.testing.assert_array_equal(labels, (total[:, None] > edges).sum(axis=1))

    def test_extra_features_are_uniform_noise(self):
        stream = SEAGenerator(n_classes=2, noise=0.0, n_features=5, seed=3)
        features, labels = stream.generate_batch(2000)
        np.testing.assert_array_equal(labels, features[:, 0] + features[:, 1] > 10.0)
        extra = features[:, 2:]
        assert np.all((extra >= 0.0) & (extra <= 10.0))
        np.testing.assert_allclose(extra.mean(axis=0), 5.0, atol=0.3)

    def test_noise_flips_labels_at_the_configured_rate(self):
        """A noisy row draws a uniform class, so with 2 classes a fraction
        ``0.3 / 2 = 0.15`` of labels leave their band."""
        stream = SEAGenerator(n_classes=2, noise=0.3, seed=4)
        features, labels = stream.generate_batch(4000)
        clean = features[:, 0] + features[:, 1] > 10.0
        assert 0.12 < np.mean(labels != clean) < 0.18


@pytest.mark.parametrize(
    "make",
    [
        lambda concept: AgrawalGenerator(n_classes=5, n_features=20, concept=concept, seed=9),
        lambda concept: HyperplaneGenerator(
            n_classes=5, n_features=10, mag_change=0.01, concept=concept, seed=9
        ),
        lambda concept: RandomRBFGenerator(
            n_classes=4, n_features=8, centroid_speed=0.01, concept=concept, seed=9
        ),
        lambda concept: RandomTreeGenerator(
            n_classes=4, n_features=6, noise=0.1, concept=concept, seed=9
        ),
        lambda concept: SEAGenerator(n_classes=3, concept=concept, seed=9),
    ],
    ids=["agrawal", "hyperplane", "rbf", "randomtree", "sea"],
)
def test_set_concept_matches_constructing_on_that_concept(make):
    """A concept index means the same concept however it was reached:
    restoring a snapshot switches concepts with ``set_concept``, and the
    schedule engine builds each concept through the constructor."""
    switched = make(0)
    switched.set_concept(3)
    assert switched.concept == 3
    built_x, built_y = make(3).generate_batch(300)
    switched_x, switched_y = switched.generate_batch(300)
    np.testing.assert_array_equal(switched_x, built_x)
    np.testing.assert_array_equal(switched_y, built_y)
