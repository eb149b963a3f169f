"""Unit tests for the stream abstractions in repro.streams.base."""

import numpy as np
import pytest

from repro.streams.base import (
    DataStream,
    Instance,
    ListStream,
    StreamSchema,
    stream_to_arrays,
    take,
)


class TestInstance:
    def test_casts_feature_vector_to_float64(self):
        instance = Instance(x=[1, 2, 3], y=1)
        assert instance.x.dtype == np.float64
        assert instance.n_features == 3

    def test_casts_label_to_int(self):
        instance = Instance(x=np.zeros(2), y=np.int64(2))
        assert isinstance(instance.y, int)
        assert instance.y == 2

    def test_default_weight_is_one(self):
        assert Instance(x=np.zeros(2), y=0).weight == 1.0

    def test_is_frozen(self):
        instance = Instance(x=np.zeros(2), y=0)
        with pytest.raises(AttributeError):
            instance.y = 1


class TestStreamSchema:
    def test_generates_default_names(self):
        schema = StreamSchema(n_features=2, n_classes=3)
        assert schema.feature_names == ("x0", "x1")
        assert schema.class_names == ("class_0", "class_1", "class_2")

    def test_rejects_non_positive_features(self):
        with pytest.raises(ValueError):
            StreamSchema(n_features=0, n_classes=2)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            StreamSchema(n_features=2, n_classes=1)

    def test_rejects_mismatched_feature_names(self):
        with pytest.raises(ValueError):
            StreamSchema(n_features=2, n_classes=2, feature_names=("a",))

    def test_rejects_mismatched_class_names(self):
        with pytest.raises(ValueError):
            StreamSchema(n_features=2, n_classes=3, class_names=("a", "b"))


class _ConstantStream(DataStream):
    """Minimal concrete stream for exercising the base-class machinery."""

    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        values = self._rng.random(n)
        labels = (self._position + np.arange(n)) % 2
        return np.column_stack([values, values]), labels.astype(np.int64)


class TestDataStream:
    def _make(self, seed=7):
        schema = StreamSchema(n_features=2, n_classes=2, name="const")
        return _ConstantStream(schema, seed=seed)

    def test_position_advances(self):
        stream = self._make()
        stream.take(5)
        assert stream.position == 5

    def test_restart_resets_position_and_rng(self):
        stream = self._make()
        first = [inst.x[0] for inst in stream.take(10)]
        stream.restart()
        second = [inst.x[0] for inst in stream.take(10)]
        assert first == second
        assert stream.position == 10

    def test_same_seed_same_sequence(self):
        a = [inst.x[0] for inst in self._make(seed=1).take(20)]
        b = [inst.x[0] for inst in self._make(seed=1).take(20)]
        assert a == b

    def test_different_seed_different_sequence(self):
        a = [inst.x[0] for inst in self._make(seed=1).take(20)]
        b = [inst.x[0] for inst in self._make(seed=2).take(20)]
        assert a != b

    def test_iteration_protocol(self):
        stream = self._make()
        collected = take(stream, 7)
        assert len(collected) == 7

    def test_schema_properties(self):
        stream = self._make()
        assert stream.n_features == 2
        assert stream.n_classes == 2
        assert stream.name == "const"

    def test_batch_hook_is_required(self):
        class _NoHook(DataStream):
            pass

        with pytest.raises(TypeError):
            _NoHook(StreamSchema(n_features=2, n_classes=2))


class TestListStream:
    def test_round_trips_instances(self, tiny_list_stream):
        first = tiny_list_stream.next_instance()
        assert isinstance(first, Instance)
        assert len(tiny_list_stream) == 60

    def test_raises_when_exhausted(self):
        stream = ListStream([Instance(x=np.zeros(2), y=0), Instance(x=np.ones(2), y=1)])
        stream.take(2)
        with pytest.raises(StopIteration):
            stream.next_instance()

    def test_for_loop_terminates_cleanly(self):
        # Regression: StopIteration escaping a generator-based __iter__ is a
        # RuntimeError under PEP 479; iteration must end cleanly instead.
        stream = ListStream(
            [Instance(x=np.full(2, float(i)), y=i % 2) for i in range(5)]
        )
        seen = [instance.y for instance in stream]
        assert seen == [0, 1, 0, 1, 0]

    def test_take_returns_remaining_on_exhaustion(self):
        stream = ListStream(
            [Instance(x=np.full(2, float(i)), y=i % 2) for i in range(3)]
        )
        collected = stream.take(10)
        assert len(collected) == 3
        assert stream.take(10) == []

    def test_generate_batch_truncates_at_end(self):
        stream = ListStream(
            [Instance(x=np.full(2, float(i)), y=i % 2) for i in range(7)]
        )
        features, labels = stream.generate_batch(5)
        assert features.shape == (5, 2)
        features, labels = stream.generate_batch(5)
        assert features.shape == (2, 2)
        np.testing.assert_array_equal(labels, [1, 0])
        features, labels = stream.generate_batch(5)
        assert features.shape == (0, 2)
        assert stream.position == 7

    def test_generate_batch_matches_instances(self):
        instances = [Instance(x=np.full(3, float(i)), y=i % 4) for i in range(20)]
        batch_stream = ListStream(instances)
        features, labels = batch_stream.generate_batch(20)
        expected_x, expected_y = stream_to_arrays(instances)
        np.testing.assert_array_equal(features, expected_x)
        np.testing.assert_array_equal(labels, expected_y)

    def test_restart_replays_from_beginning(self, tiny_list_stream):
        first_pass = [inst.y for inst in tiny_list_stream.take(10)]
        tiny_list_stream.restart()
        second_pass = [inst.y for inst in tiny_list_stream.take(10)]
        assert first_pass == second_pass

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            ListStream([])

    def test_infers_schema(self):
        instances = [Instance(x=np.zeros(5), y=3)]
        stream = ListStream(instances)
        assert stream.n_features == 5
        assert stream.n_classes == 4


class TestHelpers:
    def test_stream_to_arrays_shapes(self, tiny_list_stream):
        instances = tiny_list_stream.take(30)
        X, y = stream_to_arrays(instances)
        assert X.shape == (30, 4)
        assert y.shape == (30,)
        assert y.dtype == np.int64

    def test_stream_to_arrays_rejects_empty(self):
        with pytest.raises(ValueError):
            stream_to_arrays([])

    def test_take_respects_count(self, tiny_list_stream):
        assert len(take(tiny_list_stream, 15)) == 15
