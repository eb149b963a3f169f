"""Unit tests for the declarative schedule DSL and its execution engine."""

import numpy as np
import pytest

from repro.streams.base import DataStream, StreamSchema
from repro.streams.generators import RandomRBFGenerator
from repro.streams.imbalance import DynamicImbalance, StaticImbalance
from repro.streams.schedule import (
    DriftEvent,
    Schedule,
    ScheduledStream,
    Segment,
)


def rbf_factory(n_classes=4, n_features=6, seed=5):
    def factory(concept):
        return RandomRBFGenerator(
            n_classes=n_classes,
            n_features=n_features,
            n_centroids=10,
            concept=concept,
            seed=seed,
        )

    return factory


class TestSegmentValidation:
    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError, match="length"):
            Segment(length=0)

    def test_rejects_unknown_transition(self):
        with pytest.raises(ValueError, match="transition"):
            Segment(length=10, transition="wobbly")

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError, match="label_noise"):
            Segment(length=10, label_noise=1.5)

    def test_rejects_empty_class_sets(self):
        with pytest.raises(ValueError, match="drifted_classes"):
            Segment(length=10, drifted_classes=())
        with pytest.raises(ValueError, match="active_classes"):
            Segment(length=10, active_classes=())

    def test_class_sets_are_sorted_and_deduped(self):
        segment = Segment(length=10, drifted_classes=(3, 1, 3))
        assert segment.drifted_classes == (1, 3)

    def test_rejects_bad_imbalance_ratio(self):
        with pytest.raises(ValueError, match="imbalance_ratio"):
            Segment(length=10, imbalance_ratio=0.5)


class TestScheduleGeometry:
    def test_requires_at_least_one_segment(self):
        with pytest.raises(ValueError):
            Schedule(segments=())

    def test_total_length_and_starts(self):
        schedule = Schedule.of(Segment(100), Segment(50), Segment(25))
        assert schedule.total_length == 175
        assert schedule.starts() == [0, 100, 150]

    def test_concept_inheritance(self):
        schedule = Schedule.of(
            Segment(10), Segment(10, concept=2), Segment(10), Segment(10, concept=0)
        )
        np.testing.assert_array_equal(
            schedule.class_concepts(2), [[0, 0], [2, 2], [2, 2], [0, 0]]
        )

    def test_feature_shift_inheritance(self):
        schedule = Schedule.of(
            Segment(10), Segment(10, feature_shift=0.3), Segment(10)
        )
        assert schedule.resolved_shifts() == [0.0, 0.3, 0.3]

    def test_recurring_helper_cycles(self):
        schedule = Schedule.recurring([0, 1], period=50, n_periods=4)
        np.testing.assert_array_equal(schedule.class_concepts(1)[:, 0], [0, 1, 0, 1])
        assert schedule.drift_points() == [50, 100, 150]

    def test_recurring_rejects_empty_concepts(self):
        with pytest.raises(ValueError, match="concepts"):
            Schedule.recurring([], period=10, n_periods=2)

    def test_recurring_rejects_non_positive_period(self):
        with pytest.raises(ValueError, match="positive"):
            Schedule.recurring([0, 1], period=0, n_periods=2)
        with pytest.raises(ValueError, match="positive"):
            Schedule.recurring([0, 1], period=10, n_periods=0)

    def test_initial_concept_is_not_a_drift(self):
        schedule = Schedule.of(
            Segment(300, concept=5), Segment(300, concept=6), Segment(300, concept=7)
        )
        np.testing.assert_array_equal(schedule.class_concepts(2)[:, 0], [5, 6, 7])
        assert schedule.drift_points() == [300, 600]


class TestGroundTruth:
    def test_real_drift_events(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(100, concept=1),
            Segment(100, concept=1),  # no change: no event
            Segment(100, concept=2, drifted_classes=(3,)),
        )
        events = schedule.events()
        assert events == [
            DriftEvent(100, "real"),
            DriftEvent(300, "real", classes=(3,)),
        ]
        assert schedule.drift_points() == [100, 300]

    def test_blip_events_are_not_real(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(20, concept=1, blip=True),
            Segment(100, concept=0),
        )
        kinds = [e.kind for e in schedule.events()]
        assert kinds == ["blip", "blip"]
        assert schedule.drift_points() == []

    def test_virtual_noise_and_prior_events(self):
        schedule = Schedule.of(
            Segment(100),
            Segment(100, feature_shift=0.4, label_noise=0.2),
            Segment(100, feature_shift=0.4, active_classes=(0, 1)),
        )
        events = schedule.events(n_classes=3)
        assert DriftEvent(100, "virtual") in events
        assert DriftEvent(100, "noise") in events
        # Noise reverts to 0 at the third segment, the shift persists.
        assert DriftEvent(200, "noise") in events
        assert DriftEvent(200, "prior", classes=(2,)) in events
        assert not any(e.kind == "virtual" and e.position == 200 for e in events)

    def test_event_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            DriftEvent(0, "weird")

    def test_spreading_local_drift_names_the_classes_that_move(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(100, concept=1, drifted_classes=(3,)),
            Segment(100, concept=1),  # the rest of the classes follow
        )
        assert schedule.events(n_classes=4) == [
            DriftEvent(100, "real", classes=(3,)),
            DriftEvent(200, "real", classes=(0, 1, 2)),
        ]
        # Without n_classes the classes no segment names cannot be listed.
        assert schedule.events()[1] == DriftEvent(200, "real")


class TestScheduledStream:
    def _stream(self, seed=9, **kwargs):
        schedule = Schedule.of(
            Segment(120, concept=0),
            Segment(120, concept=1, transition="gradual", width=40),
            Segment(120, concept=2, drifted_classes=(2, 3)),
        )
        return ScheduledStream(
            rbf_factory(), schedule, seed=seed,
            imbalance=DynamicImbalance(4, 2.0, 20.0, period=200), **kwargs
        )

    def test_schema_comes_from_factory(self):
        stream = self._stream()
        assert stream.n_classes == 4
        assert stream.n_features == 6

    def test_ground_truth_exposed(self):
        stream = self._stream()
        assert stream.drift_points == [120, 240]
        assert stream.drifted_classes == [None, [2, 3]]
        assert [e.kind for e in stream.events] == ["real", "real"]

    def test_open_ended_tail(self):
        stream = self._stream()
        features, labels = stream.generate_batch(500)
        assert labels.shape[0] == 500  # total_length is 360; tail continues

    def test_restart_replays(self):
        stream = self._stream()
        first_x, first_y = stream.generate_batch(200)
        stream.restart()
        second_x, second_y = stream.generate_batch(200)
        np.testing.assert_array_equal(first_x, second_x)
        np.testing.assert_array_equal(first_y, second_y)

    def test_active_classes_respected(self):
        schedule = Schedule.of(
            Segment(50, concept=0),
            Segment(150, active_classes=(0, 2)),
        )
        stream = ScheduledStream(rbf_factory(), schedule, seed=3)
        _, labels = stream.generate_batch(200)
        assert set(np.unique(labels[50:])) <= {0, 2}

    def test_removed_class_never_leaks_through_sampler_fallback(self):
        # Regression: the sampler's fullest-buffer fallback could re-emit a
        # removed class when the wanted class exhausted the draw budget.  A
        # tiny budget forces the fallback on nearly every request; the active
        # mask must still hold exactly after the declared change point.
        schedule = Schedule.of(
            Segment(50, concept=0, imbalance_ratio=50.0),
            Segment(450, active_classes=(2, 3), imbalance_ratio=50.0),
        )
        stream = ScheduledStream(
            rbf_factory(), schedule, seed=3, max_tries_per_draw=2
        )
        _, labels = stream.generate_batch(500)
        assert set(np.unique(labels[50:])) <= {2, 3}
        # Both reading paths agree under the stressed fallback: the batch
        # read serves each segment's requests in one sampler call (one run
        # of concept 0), `take` serves every request in a call of its own.
        other = ScheduledStream(
            rbf_factory(), schedule, seed=3, max_tries_per_draw=2
        )
        inst_y = np.asarray([i.y for i in other.take(500)])
        np.testing.assert_array_equal(labels, inst_y)

    def test_static_segment_ratio_override(self):
        schedule = Schedule.of(Segment(4000, concept=0, imbalance_ratio=30.0))
        stream = ScheduledStream(rbf_factory(), schedule, seed=1)
        _, labels = stream.generate_batch(4000)
        counts = np.bincount(labels, minlength=4).astype(float)
        assert counts[0] / max(counts[3], 1.0) > 5.0

    def test_rotation_override_changes_majority(self):
        base = Schedule.of(Segment(3000, imbalance_ratio=25.0))
        rotated = Schedule.of(Segment(3000, imbalance_ratio=25.0, rotation=1))
        majority = []
        for schedule in (base, rotated):
            stream = ScheduledStream(rbf_factory(), schedule, seed=2)
            _, labels = stream.generate_batch(3000)
            majority.append(int(np.argmax(np.bincount(labels, minlength=4))))
        assert majority[0] != majority[1]

    def test_label_noise_flips_labels(self):
        clean = Schedule.of(Segment(2000, concept=0))
        noisy = Schedule.of(Segment(2000, concept=0, label_noise=0.5))
        stream_clean = ScheduledStream(rbf_factory(), clean, seed=4)
        stream_noisy = ScheduledStream(rbf_factory(), noisy, seed=4)
        _, labels_clean = stream_clean.generate_batch(2000)
        _, labels_noisy = stream_noisy.generate_batch(2000)
        flipped = (labels_clean != labels_noisy).mean()
        assert 0.3 < flipped < 0.7  # ~half the labels move to another class

    def test_feature_shift_moves_features_deterministically(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(100, feature_shift=2.0, width=0),
        )
        shifted = ScheduledStream(rbf_factory(), schedule, seed=6)
        plain = ScheduledStream(
            rbf_factory(), Schedule.of(Segment(200, concept=0)), seed=6
        )
        shifted_x, shifted_y = shifted.generate_batch(200)
        plain_x, plain_y = plain.generate_batch(200)
        np.testing.assert_array_equal(shifted_y, plain_y)  # labels untouched
        np.testing.assert_array_equal(shifted_x[:100], plain_x[:100])
        delta = shifted_x[100:] - plain_x[100:]
        np.testing.assert_allclose(np.linalg.norm(delta, axis=1), 2.0)
        # All rows shift along the same fixed unit direction.
        directions = delta / np.linalg.norm(delta, axis=1, keepdims=True)
        assert np.abs(directions - directions[0]).max() < 1e-12

    def test_blip_reverts_to_base_concept(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(30, concept=1, blip=True),
            Segment(100, concept=0),
        )
        stream = ScheduledStream(rbf_factory(), schedule, seed=7)
        assert stream.drift_points == []
        kinds = [e.kind for e in stream.events]
        assert kinds == ["blip", "blip"]

    def test_profile_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_classes"):
            ScheduledStream(
                rbf_factory(n_classes=4),
                Schedule.of(Segment(10)),
                imbalance=StaticImbalance(3, 10.0),
            )

    def test_out_of_range_classes_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ScheduledStream(
                rbf_factory(n_classes=4),
                Schedule.of(Segment(10, active_classes=(0, 9))),
            )

    def test_out_of_range_drifted_classes_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ScheduledStream(
                rbf_factory(n_classes=4),
                Schedule.of(Segment(10), Segment(10, concept=1, drifted_classes=(4,))),
            )

    def test_rows_before_a_local_drift_are_untouched_by_it(self):
        # A drift declared far ahead must not perturb a single row before it.
        plain = ScheduledStream(
            rbf_factory(), Schedule.of(Segment(10_000, concept=0)), seed=1
        )
        drifting = ScheduledStream(
            rbf_factory(),
            Schedule.of(
                Segment(10_000, concept=0),
                Segment(10, concept=1, drifted_classes=(2,)),
            ),
            seed=1,
        )
        plain_x, plain_y = plain.generate_batch(500)
        drifting_x, drifting_y = drifting.generate_batch(500)
        np.testing.assert_array_equal(plain_x, drifting_x)
        np.testing.assert_array_equal(plain_y, drifting_y)

    def test_position_advances_across_paths(self):
        stream = self._stream()
        stream.generate_batch(17)
        stream.next_instance()
        assert stream.position == 18


class TestFiniteSourceExhaustion:
    """A finite source exhausting mid-batch must stay chunk-exact and terminal."""

    @staticmethod
    def _make():
        from repro.streams.base import Instance, ListStream

        def factory(concept):
            return ListStream(
                [Instance(x=np.full(2, 100.0 * concept + i), y=i % 2) for i in range(40)]
            )

        return ScheduledStream(
            factory, Schedule.of(Segment(30, concept=0), Segment(30, concept=1)), seed=0
        )

    @staticmethod
    def _make_with_noise_and_shift():
        from repro.streams.base import Instance, ListStream

        def factory(concept):
            return ListStream(
                [Instance(x=np.full(2, float(i)), y=i % 3) for i in range(60)]
            )

        return ScheduledStream(
            factory,
            Schedule.of(
                Segment(20, concept=0),
                Segment(40, label_noise=0.4, feature_shift=0.5, width=10),
            ),
            seed=1,
        )

    def test_truncated_batch_still_applies_noise_and_shift(self):
        # Regression: the exhaustion path used to return the emitted prefix
        # before the label-noise / feature-shift post-processing ran, so a
        # truncated batch diverged from per-instance iteration.
        instances = self._make_with_noise_and_shift().take(1000)
        inst_x = np.vstack([i.x for i in instances])
        inst_y = np.asarray([i.y for i in instances])
        batch_stream = self._make_with_noise_and_shift()
        chunks = []
        while True:
            features, labels = batch_stream.generate_batch(23)
            if labels.shape[0] == 0:
                break
            chunks.append((features, labels))
        batch_x = np.vstack([f for f, _ in chunks])
        batch_y = np.concatenate([y for _, y in chunks])
        assert batch_x.shape == inst_x.shape
        np.testing.assert_array_equal(batch_x, inst_x)
        np.testing.assert_array_equal(batch_y, inst_y)

    def test_batch_matches_instance_on_exhaustion(self):
        instances = self._make().take(1000)
        batch_stream = self._make()
        chunks = []
        while True:
            features, labels = batch_stream.generate_batch(7)
            if labels.shape[0] == 0:
                break
            chunks.append((features, labels))
        batch_x = np.vstack([f for f, _ in chunks])
        inst_x = np.vstack([i.x for i in instances])
        assert batch_x.shape == inst_x.shape
        np.testing.assert_array_equal(batch_x, inst_x)
        # Terminal for both paths afterwards.
        assert batch_stream.generate_batch(5)[1].shape[0] == 0
        assert batch_stream.take(5) == []


class _ConceptSource(DataStream):
    """Source whose only feature is its concept index; labels cycle."""

    def __init__(self, concept: int) -> None:
        super().__init__(StreamSchema(n_features=1, n_classes=4), seed=0)
        self._concept = concept

    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = (self._position + np.arange(n)) % self.n_classes
        return np.full((n, 1), float(self._concept)), labels.astype(np.int64)


class TestLocalDriftPersists:
    """A local drift moves only its classes, and the others stay put after it."""

    @staticmethod
    def _assert_class_concepts(schedule, expected):
        """Each class emits only its expected concept in each 100-row segment."""
        np.testing.assert_array_equal(schedule.class_concepts(4), expected)
        stream = ScheduledStream(_ConceptSource, schedule, seed=0)
        features, labels = stream.generate_batch(300)
        for segment, row in enumerate(expected):
            rows = slice(100 * segment, 100 * segment + 100)
            emitted = [
                set(features[rows][labels[rows] == c, 0].tolist()) for c in range(4)
            ]
            assert emitted == [{float(concept)} for concept in row], segment
        return stream

    def test_next_segment_keeps_undrifted_classes(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(100, concept=1, drifted_classes=(2, 3)),
            Segment(100),
        )
        stream = self._assert_class_concepts(
            schedule, [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
        )
        assert stream.events == [DriftEvent(100, "real", classes=(2, 3))]

    def test_second_local_drift_names_only_its_classes(self):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(100, concept=4, drifted_classes=(3,)),
            Segment(100, concept=8, drifted_classes=(2, 3)),
        )
        stream = self._assert_class_concepts(
            schedule, [[0, 0, 0, 0], [0, 0, 0, 4], [0, 0, 8, 8]]
        )
        assert stream.events == [
            DriftEvent(100, "real", classes=(3,)),
            DriftEvent(200, "real", classes=(2, 3)),
        ]
        assert stream.drifted_classes == [[3], [2, 3]]


class _ClassZeroSource(DataStream):
    """Endless four-class source that only ever emits class 0 at the origin."""

    def __init__(self) -> None:
        super().__init__(StreamSchema(n_features=6, n_classes=4), seed=0)

    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((n, 6)), np.zeros(n, dtype=np.int64)


class TestTransitions:
    """Emitted concept per row follows each transition's declared shape."""

    WIDTH = 2_000

    @classmethod
    def _new_concept_share(cls, transition, drifted_classes=None):
        schedule = Schedule.of(
            Segment(100, concept=0),
            Segment(
                3 * cls.WIDTH,
                concept=1,
                transition=transition,
                width=cls.WIDTH,
                drifted_classes=drifted_classes,
            ),
        )
        stream = ScheduledStream(_ConceptSource, schedule, seed=3)
        features, labels = stream.generate_batch(100 + 2 * cls.WIDTH)
        return features[:, 0], labels

    @classmethod
    def _quarter_means(cls, probability):
        offsets = np.arange(cls.WIDTH) / cls.WIDTH
        return probability(offsets).reshape(4, -1).mean(axis=1)

    def test_sudden_switches_at_the_segment_start(self):
        concept, _ = self._new_concept_share("sudden")
        assert set(concept[:100].tolist()) == {0.0}
        assert set(concept[100:].tolist()) == {1.0}

    def test_gradual_share_rises_linearly(self):
        concept, _ = self._new_concept_share("gradual")
        window = concept[100 : 100 + self.WIDTH].reshape(4, -1).mean(axis=1)
        np.testing.assert_allclose(
            window, self._quarter_means(lambda p: p), atol=0.05
        )
        assert set(concept[:100].tolist()) == {0.0}
        assert set(concept[100 + self.WIDTH :].tolist()) == {1.0}

    def test_incremental_share_is_sigmoidal(self):
        concept, _ = self._new_concept_share("incremental")
        window = concept[100 : 100 + self.WIDTH].reshape(4, -1).mean(axis=1)
        sigmoid = self._quarter_means(
            lambda p: 1.0 / (1.0 + np.exp(-4.0 * (2.0 * p - 1.0)))
        )
        np.testing.assert_allclose(window, sigmoid, atol=0.05)
        # Slower than a linear mixture at the start, faster near the end.
        assert window[0] < 0.1 and window[3] > 0.9
        assert set(concept[100 + self.WIDTH :].tolist()) == {1.0}

    def test_transition_leaves_unmoved_classes_alone(self):
        concept, labels = self._new_concept_share("gradual", drifted_classes=(3,))
        assert set(concept[labels != 3].tolist()) == {0.0}
        moved = concept[labels == 3]
        assert {0.0, 1.0} <= set(moved.tolist())

    def test_unreachable_class_in_new_concept_falls_back_without_aborting(self):
        # The new concept cannot produce the drifted classes at all; the
        # sampler's fallback must keep the stream going, identically on both
        # reading paths.
        reference = rbf_factory()

        def factory(concept):
            return reference(concept) if concept == 0 else _ClassZeroSource()

        def make():
            return ScheduledStream(
                factory,
                Schedule.of(
                    Segment(5, concept=0),
                    Segment(200, concept=1, drifted_classes=(2, 3)),
                ),
                seed=3,
                max_tries_per_draw=64,
            )

        instances = make().take(120)
        batch_x, batch_y = make().generate_batch(120)
        assert batch_y.shape[0] == 120
        np.testing.assert_array_equal(batch_x, np.vstack([i.x for i in instances]))
        np.testing.assert_array_equal(batch_y, [i.y for i in instances])
        # Requests for the drifted classes were served by the new concept.
        assert not np.isin(batch_y[5:], [2, 3]).any()
        assert (np.abs(batch_x[5:]).sum(axis=1) == 0).any()


class TestRecurringDrift:
    @pytest.mark.parametrize("chunking", [[37, 80, 1, 113, 119], [350], [1] * 350])
    def test_cycle_boundaries_exact_across_chunkings(self, chunking):
        # Chunks crossing a cycle boundary mid-batch must switch concept at
        # exactly the declared row, whatever the chunking.
        stream = ScheduledStream(
            _ConceptSource,
            Schedule.recurring([0, 1, 2], period=110, n_periods=4),
            seed=0,
        )
        parts = [stream.generate_batch(size)[0][:, 0] for size in chunking]
        concept = np.concatenate(parts)
        expected = (np.arange(350) // 110) % 3
        np.testing.assert_array_equal(concept, expected)
        assert stream.position == 350
        assert stream.drift_points == [110, 220, 330]
