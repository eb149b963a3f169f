"""Seeded batch/instance equivalence for every generator and scheduled stream.

The batch-first contract: for a fixed seed, ``generate_batch(n)`` must be
bit-identical to ``n`` calls of ``next_instance()``, and to any split of the
same ``n`` instances across several smaller batches.  These tests pin that
contract for every generator (in noisy and noiseless configurations, and
with the sequential-state variants like the drifting hyperplane and moving
RBF centroids) and for the schedule engine: sudden, gradual and incremental
transitions, concept schedules, recurring and local drift, imbalance
profiles, every scenario family, a composed schedule, a real-world
surrogate, and finite sources that run dry mid-transition.
"""

import numpy as np
import pytest

from repro.streams.base import DataStream, Instance, ListStream
from repro.streams.generators import (
    AgrawalGenerator,
    HyperplaneGenerator,
    RandomRBFGenerator,
    RandomTreeGenerator,
    SEAGenerator,
)
from repro.streams.imbalance import DynamicImbalance, RoleSwitchingImbalance
from repro.streams.real_world import real_world_stream
from repro.streams.scenarios import (
    make_artificial_stream,
    scenario_blip,
    scenario_class_arrival,
    scenario_feature_drift,
    scenario_gradual_mixture,
    scenario_label_noise,
    scenario_local_drift,
    scenario_recurring_drift,
    scenario_role_switching,
)
from repro.streams.schedule import Schedule, ScheduledStream, Segment

N_CHECK = 400
SPLITS = (1, 5, 94, 300)  # sums to N_CHECK


GENERATOR_FACTORIES = {
    "sea": lambda seed: SEAGenerator(n_classes=3, noise=0.1, seed=seed),
    "sea-noiseless": lambda seed: SEAGenerator(n_classes=2, noise=0.0, seed=seed),
    # Noise columns sit after the features, so their offset moves with width.
    "sea-wide": lambda seed: SEAGenerator(
        n_classes=4, noise=0.2, n_features=7, seed=seed
    ),
    "hyperplane": lambda seed: HyperplaneGenerator(
        n_classes=5, n_features=10, seed=seed
    ),
    "hyperplane-noiseless": lambda seed: HyperplaneGenerator(
        n_classes=5, n_features=10, noise=0.0, seed=seed
    ),
    "hyperplane-drift": lambda seed: HyperplaneGenerator(
        n_classes=5, n_features=10, mag_change=0.01, seed=seed
    ),
    "rbf": lambda seed: RandomRBFGenerator(n_classes=4, n_features=8, seed=seed),
    "rbf-moving": lambda seed: RandomRBFGenerator(
        n_classes=4, n_features=8, centroid_speed=0.01, seed=seed
    ),
    "agrawal": lambda seed: AgrawalGenerator(n_classes=5, n_features=20, seed=seed),
    "agrawal-unperturbed": lambda seed: AgrawalGenerator(
        n_classes=5, n_features=20, perturbation=0.0, seed=seed
    ),
    "randomtree": lambda seed: RandomTreeGenerator(
        n_classes=4, n_features=6, noise=0.1, seed=seed
    ),
    # The paper's configuration: a noiseless tree.
    "randomtree-noiseless": lambda seed: RandomTreeGenerator(
        n_classes=4, n_features=6, seed=seed
    ),
}


def _rbf(seed, concept=0):
    return RandomRBFGenerator(
        n_classes=4, n_features=8, concept=concept, seed=seed
    )


def _sea_drift(seed, transition, width=0):
    """SEA concept 0 until row 100, then concept 2 via ``transition``."""
    return ScheduledStream(
        lambda concept: SEAGenerator(n_classes=3, concept=concept, seed=seed + concept),
        Schedule.of(
            Segment(length=100, concept=0),
            Segment(length=300, concept=2, transition=transition, width=width),
        ),
        seed=seed + 2,
    )


SCHEDULED_FACTORIES = {
    "concept-drift-sudden": lambda seed: _sea_drift(seed, "sudden"),
    "concept-drift-gradual": lambda seed: _sea_drift(seed, "gradual", width=200),
    "concept-drift-incremental": lambda seed: _sea_drift(
        seed, "incremental", width=200
    ),
    "schedule": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(
            Segment(length=150, concept=0),
            Segment(length=140, concept=1),
            Segment(length=110, concept=2),
        ),
        seed=seed + 1,
    ),
    "recurring": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.recurring([0, 1, 2], period=110, n_periods=4),
        seed=seed + 1,
    ),
    "local-drift": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(
            Segment(length=80, concept=0),
            Segment(
                length=320,
                concept=1,
                drifted_classes=(2, 3),
                transition="gradual",
                width=150,
            ),
        ),
        seed=seed + 1,
    ),
    "imbalanced-dynamic": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(Segment(length=N_CHECK)),
        imbalance=DynamicImbalance(4, 2.0, 25.0, period=300),
        seed=seed + 1,
    ),
    "imbalanced-roles": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(Segment(length=N_CHECK)),
        imbalance=RoleSwitchingImbalance(4, 2.0, 25.0, period=300, switch_period=130),
        seed=seed + 1,
    ),
    "scenario1": lambda seed: make_artificial_stream(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario2": lambda seed: scenario_role_switching(
        "randomtree", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario3": lambda seed: scenario_local_drift(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario4": lambda seed: scenario_recurring_drift(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario5": lambda seed: scenario_gradual_mixture(
        "randomtree", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario6": lambda seed: scenario_class_arrival(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario7": lambda seed: scenario_feature_drift(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario8": lambda seed: scenario_label_noise(
        "randomtree", 5, n_instances=2_000, seed=seed
    ).stream,
    "scenario9": lambda seed: scenario_blip(
        "rbf", 5, n_instances=2_000, seed=seed
    ).stream,
    "schedule-dsl": lambda seed: ScheduledStream(
        lambda concept: _rbf(seed, concept),
        Schedule.of(
            Segment(length=90, concept=0, imbalance_ratio=10.0),
            Segment(length=90, concept=1, transition="incremental", width=40),
            Segment(length=90, concept=2, drifted_classes=(2, 3), label_noise=0.1),
            Segment(length=90, feature_shift=0.3, width=30, rotation=2),
            Segment(length=90, concept=0, active_classes=(0, 1, 3)),
        ),
        seed=seed + 1,
    ),
    "real-world": lambda seed: real_world_stream(
        "Electricity", n_instances=2_000, seed=seed
    ).stream,
}

ALL_FACTORIES = {**GENERATOR_FACTORIES, **SCHEDULED_FACTORIES}


def _materialise_instances(stream: DataStream, n: int):
    instances = stream.take(n)
    features = np.vstack([inst.x for inst in instances])
    labels = np.asarray([inst.y for inst in instances], dtype=np.int64)
    return features, labels


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
class TestBatchInstanceParity:
    def test_batch_matches_instances_bitwise(self, name):
        factory = ALL_FACTORIES[name]
        batch_stream = factory(42)
        instance_stream = factory(42)
        batch_x, batch_y = batch_stream.generate_batch(N_CHECK)
        inst_x, inst_y = _materialise_instances(instance_stream, N_CHECK)
        assert batch_y.shape[0] == N_CHECK
        np.testing.assert_array_equal(batch_x, inst_x)
        np.testing.assert_array_equal(batch_y, inst_y)

    def test_batch_split_invariant(self, name):
        factory = ALL_FACTORIES[name]
        whole = factory(7)
        split = factory(7)
        whole_x, whole_y = whole.generate_batch(N_CHECK)
        parts = [split.generate_batch(k) for k in SPLITS]
        split_x = np.vstack([part[0] for part in parts])
        split_y = np.concatenate([part[1] for part in parts])
        np.testing.assert_array_equal(whole_x, split_x)
        np.testing.assert_array_equal(whole_y, split_y)

    def test_position_advances_with_batches(self, name):
        stream = ALL_FACTORIES[name](3)
        stream.generate_batch(17)
        stream.next_instance()
        assert stream.position == 18

    def test_restart_replays_batches(self, name):
        stream = ALL_FACTORIES[name](11)
        first_x, first_y = stream.generate_batch(60)
        stream.restart()
        second_x, second_y = stream.generate_batch(60)
        np.testing.assert_array_equal(first_x, second_x)
        np.testing.assert_array_equal(first_y, second_y)


class TestFiniteSourceExhaustion:
    """A finite source exhausting mid-transition must never lose drawn data."""

    @staticmethod
    def _make(n_base, n_drift):
        # Row i of concept c has both features 1000 * c + i and label i % 2,
        # so every emitted row names its source and its source row.
        sizes = {0: n_base, 1: n_drift}

        def factory(concept):
            return ListStream(
                [
                    Instance(x=np.full(2, 1000.0 * concept + i), y=i % 2)
                    for i in range(sizes[concept])
                ]
            )

        return ScheduledStream(
            factory,
            Schedule.of(
                Segment(length=1, concept=0),
                Segment(length=60, concept=1, transition="gradual", width=12),
            ),
            seed=0,
        )

    @pytest.mark.parametrize("n_base,n_drift", [(8, 30), (3, 200), (30, 4)])
    def test_batch_matches_instances_even_when_finite(self, n_base, n_drift):
        instance_stream = self._make(n_base, n_drift)
        instances = instance_stream.take(1_000)
        inst_x = np.vstack([i.x for i in instances])

        batch_stream = self._make(n_base, n_drift)
        chunks = []
        while True:
            features, labels = batch_stream.generate_batch(5)
            if labels.shape[0] == 0:
                break
            chunks.append((features, labels))
        batch_x = np.vstack([f for f, _ in chunks])
        batch_y = np.concatenate([y for _, y in chunks])

        assert batch_x.shape == inst_x.shape
        np.testing.assert_array_equal(batch_x, inst_x)
        np.testing.assert_array_equal(
            batch_y, np.asarray([i.y for i in instances])
        )
        # Every emitted row is a distinct source row under its own label.
        concept, row = np.divmod(batch_x[:, 0].astype(np.int64), 1000)
        np.testing.assert_array_equal(batch_y, row % 2)
        assert len(set(zip(concept.tolist(), row.tolist()))) == batch_y.shape[0]
        # The stream ends only once the source it needed is spent: every row
        # of that source was emitted, none left behind in a class buffer.
        spent = [
            c for c, size in ((0, n_base), (1, n_drift))
            if np.array_equal(np.sort(row[concept == c]), np.arange(size))
        ]
        assert spent

    def test_exhaustion_is_terminal_for_both_paths(self):
        stream = self._make(n_base=3, n_drift=200)
        while stream.generate_batch(5)[1].shape[0]:
            pass
        # Once the selected source is exhausted, the stream stays ended for
        # both reading paths (no redrawing of the terminal decision).
        assert stream.generate_batch(5)[1].shape[0] == 0
        assert stream.take(5) == []


class TestBatchShapes:
    def test_zero_length_batch(self):
        stream = SEAGenerator(n_classes=3, seed=0)
        features, labels = stream.generate_batch(0)
        assert features.shape == (0, stream.n_features)
        assert labels.shape == (0,)
        assert stream.position == 0

    def test_negative_batch_rejected(self):
        stream = SEAGenerator(n_classes=3, seed=0)
        with pytest.raises(ValueError):
            stream.generate_batch(-1)

    def test_dtypes(self):
        features, labels = SEAGenerator(n_classes=3, seed=1).generate_batch(10)
        assert features.dtype == np.float64
        assert labels.dtype == np.int64
