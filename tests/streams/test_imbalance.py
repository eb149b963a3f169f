"""Unit tests for imbalance profiles and the skew they give a scheduled stream."""

import numpy as np
import pytest

from repro.streams.generators import RandomRBFGenerator
from repro.streams.imbalance import (
    DynamicImbalance,
    RoleSwitchingImbalance,
    StaticImbalance,
    geometric_priors,
    geometric_priors_batch,
)
from repro.streams.schedule import DriftEvent, Schedule, ScheduledStream, Segment


class TestGeometricPriors:
    def test_sum_to_one(self):
        priors = geometric_priors(5, 100.0)
        assert priors.sum() == pytest.approx(1.0)

    def test_max_min_ratio_matches_request(self):
        priors = geometric_priors(7, 50.0)
        assert priors.max() / priors.min() == pytest.approx(50.0)

    def test_balanced_when_ratio_one(self):
        priors = geometric_priors(4, 1.0)
        np.testing.assert_allclose(priors, 0.25)

    def test_monotonically_decreasing(self):
        priors = geometric_priors(6, 80.0)
        assert np.all(np.diff(priors) < 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            geometric_priors(1, 10.0)
        with pytest.raises(ValueError):
            geometric_priors(3, 0.5)


class TestStaticImbalance:
    def test_priors_constant_over_time(self):
        profile = StaticImbalance(4, 30.0)
        np.testing.assert_allclose(profile.priors(0), profile.priors(100_000))

    def test_imbalance_ratio_report(self):
        profile = StaticImbalance(4, 30.0)
        assert profile.imbalance_ratio(10) == pytest.approx(30.0)


class TestDynamicImbalance:
    def test_ratio_oscillates_between_bounds(self):
        profile = DynamicImbalance(5, min_ratio=10.0, max_ratio=100.0, period=1000)
        ratios = [profile.current_ratio(t) for t in range(0, 2000, 50)]
        assert min(ratios) == pytest.approx(10.0, abs=1e-6)
        assert max(ratios) == pytest.approx(100.0, abs=1e-6)

    def test_ratio_changes_over_time(self):
        profile = DynamicImbalance(5, min_ratio=10.0, max_ratio=100.0, period=1000)
        assert profile.imbalance_ratio(0) != pytest.approx(profile.imbalance_ratio(500))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DynamicImbalance(3, min_ratio=0.5, max_ratio=10.0, period=100)
        with pytest.raises(ValueError):
            DynamicImbalance(3, min_ratio=10.0, max_ratio=5.0, period=100)
        with pytest.raises(ValueError):
            DynamicImbalance(3, min_ratio=1.0, max_ratio=5.0, period=0)


class TestRoleSwitchingImbalance:
    def test_rotation_advances_with_switch_period(self):
        profile = RoleSwitchingImbalance(
            4, min_ratio=5.0, max_ratio=20.0, period=1000, switch_period=500
        )
        assert profile.role_rotation(0) == 0
        assert profile.role_rotation(500) == 1
        assert profile.role_rotation(2000) == 0  # wraps around 4 classes

    def test_majority_class_changes_roles(self):
        profile = RoleSwitchingImbalance(
            4, min_ratio=5.0, max_ratio=20.0, period=10_000, switch_period=100
        )
        majority_before = int(np.argmax(profile.priors(0)))
        majority_after = int(np.argmax(profile.priors(100)))
        assert majority_before != majority_after

    def test_priors_still_sum_to_one(self):
        profile = RoleSwitchingImbalance(
            5, min_ratio=2.0, max_ratio=50.0, period=500, switch_period=200
        )
        for t in (0, 123, 999, 5000):
            assert profile.priors(t).sum() == pytest.approx(1.0)

    def test_invalid_switch_period(self):
        with pytest.raises(ValueError):
            RoleSwitchingImbalance(3, 1.0, 5.0, period=10, switch_period=0)


class TestBatchPriorEvaluation:
    """The vectorized profile path must be bit-identical to the scalar one.

    The schedule engine evaluates profiles in batch; a single ULP of
    divergence from the scalar path could flip an inverse-CDF class choice
    and silently break batch/instance parity.
    """

    PROFILES = {
        "static": StaticImbalance(5, 40.0),
        "dynamic": DynamicImbalance(5, 2.0, 100.0, period=777, phase=0.3),
        "dynamic-flat": DynamicImbalance(3, 1.0, 500.0, period=10),
        "roles": RoleSwitchingImbalance(6, 3.0, 60.0, period=500, switch_period=123),
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_priors_batch_bitwise_matches_scalar(self, name):
        profile = self.PROFILES[name]
        positions = np.arange(0, 10_000, 7)
        batch = profile.priors_batch(positions)
        scalar = np.stack([profile.priors(int(t)) for t in positions])
        np.testing.assert_array_equal(batch, scalar)

    def test_priors_batch_empty_positions(self):
        batch = StaticImbalance(4, 10.0).priors_batch(np.empty(0, dtype=np.int64))
        assert batch.shape == (0, 4)

    def test_geometric_priors_batch_matches_scalar(self):
        ratios = np.linspace(1.0, 300.0, 101)
        batch = geometric_priors_batch(6, ratios)
        scalar = np.stack([geometric_priors(6, float(r)) for r in ratios])
        np.testing.assert_array_equal(batch, scalar)

    def test_geometric_priors_batch_validation(self):
        with pytest.raises(ValueError):
            geometric_priors_batch(1, np.array([2.0]))
        with pytest.raises(ValueError):
            geometric_priors_batch(3, np.array([0.5]))


class TestScheduledImbalance:
    @staticmethod
    def _stream(profile, seed, schedule=None):
        def factory(concept):
            return RandomRBFGenerator(
                n_classes=4, n_features=5, n_centroids=8, concept=concept, seed=0
            )

        return ScheduledStream(
            factory,
            schedule or Schedule.of(Segment(length=4_000)),
            imbalance=profile,
            seed=seed,
        )

    def test_schema_preserved(self):
        stream = self._stream(StaticImbalance(4, 10.0), seed=0)
        assert stream.n_classes == 4
        assert stream.n_features == 5

    def test_restart_reproduces_sequence(self):
        stream = self._stream(DynamicImbalance(4, 2.0, 30.0, period=80), seed=4)
        first_x, first_y = stream.generate_batch(100)
        stream.restart()
        second_x, second_y = stream.generate_batch(100)
        np.testing.assert_array_equal(first_x, second_x)
        np.testing.assert_array_equal(first_y, second_y)

    def test_profile_adds_no_drift_points(self):
        schedule = Schedule.of(Segment(500, concept=0), Segment(500, concept=1))
        stream = self._stream(
            RoleSwitchingImbalance(4, 2.0, 20.0, period=300, switch_period=100),
            seed=0,
            schedule=schedule,
        )
        # Prior changes driven by the profile are not concept drifts.
        assert stream.drift_points == [500]
        assert stream.events == [DriftEvent(500, "real")]

    def test_finite_source_exhaustion_is_chunk_exact_and_terminal(self):
        # A finite source exhausting mid-batch must not let StopIteration
        # escape generate_batch, nor draw fresh uniforms for positions whose
        # class choice was already decided.
        from repro.streams.base import Instance, ListStream

        def make():
            rng = np.random.default_rng(7)
            source = ListStream(
                [
                    Instance(x=rng.random(3), y=int(rng.integers(3)))
                    for _ in range(60)
                ]
            )
            return ScheduledStream(
                lambda concept: source,
                Schedule.of(Segment(length=100)),
                imbalance=StaticImbalance(3, 8.0),
                seed=5,
            )

        instances = make().take(1_000)
        inst_x = np.vstack([i.x for i in instances])
        inst_y = np.asarray([i.y for i in instances])

        batch_stream = make()
        chunks = []
        while True:
            features, labels = batch_stream.generate_batch(7)
            if labels.shape[0] == 0:
                break
            chunks.append((features, labels))
        batch_x = np.vstack([f for f, _ in chunks])
        batch_y = np.concatenate([y for _, y in chunks])

        assert 0 < batch_x.shape[0] <= 60
        assert batch_x.shape == inst_x.shape
        np.testing.assert_array_equal(batch_x, inst_x)
        np.testing.assert_array_equal(batch_y, inst_y)
        # Terminal afterwards for both reading paths.
        assert batch_stream.generate_batch(4)[1].shape[0] == 0
        assert batch_stream.take(4) == []

    def test_empirical_skew_tracks_profile(self):
        stream = self._stream(StaticImbalance(4, 20.0), seed=1)
        labels = np.asarray([inst.y for inst in stream.take(4000)])
        counts = np.bincount(labels, minlength=4).astype(float)
        # Majority (class 0) should dominate the smallest class by roughly the
        # requested factor (allow generous tolerance for sampling noise).
        assert counts[0] / max(counts[3], 1.0) > 5.0

    def test_profile_position_identical_for_empty_and_tiny_chunks(self):
        # The profile must be evaluated at the same emitted position whatever
        # mix of empty, size-1, and larger chunks got the stream there.
        def make():
            return self._stream(DynamicImbalance(4, 2.0, 40.0, period=50), seed=9)

        reference = make()
        ref_x, ref_y = reference.generate_batch(60)
        chunked = make()
        parts = []
        for size in (0, 1, 0, 13, 1, 0, 45):
            parts.append(chunked.generate_batch(size))
        chunk_x = np.vstack([p[0] for p in parts])
        chunk_y = np.concatenate([p[1] for p in parts])
        np.testing.assert_array_equal(ref_x, chunk_x)
        np.testing.assert_array_equal(ref_y, chunk_y)

    def test_role_switching_profile_changes_majority(self):
        profile = RoleSwitchingImbalance(
            4, min_ratio=5.0, max_ratio=20.0, period=4000, switch_period=1000
        )
        stream = self._stream(profile, seed=2)
        first_block = np.bincount(
            [inst.y for inst in stream.take(900)], minlength=4
        )
        stream.take(200)  # cross the switch point
        second_block = np.bincount(
            [inst.y for inst in stream.take(900)], minlength=4
        )
        assert int(np.argmax(first_block)) != int(np.argmax(second_block))
