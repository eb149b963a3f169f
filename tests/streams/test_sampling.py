"""Unit tests for the schedule engine's sampling plumbing.

Covers the three parity-critical pieces of :mod:`repro.streams.sampling`:
the row-wise inverse-CDF class choice, the uniform replay buffer, and the
class-conditional rejection sampler with its deterministic fallback chain.
"""

import weakref

import numpy as np
import pytest

from repro.core.jsonio import dumps_strict, loads_strict
from repro.core.snapshot import SnapshotError, Snapshotable
from repro.streams.base import DataStream, Instance, ListStream, StreamSchema
from repro.streams.generators import RandomRBFGenerator
from repro.streams.sampling import (
    ClassConditionalSampler,
    UniformReplayBuffer,
    inverse_cdf_classes,
)


def _sampler(stream, max_buffer=32, max_draws=64, block_size=8):
    return ClassConditionalSampler(
        stream,
        stream.n_classes,
        max_buffer=max_buffer,
        max_draws=max_draws,
        block_size=block_size,
    )


def _labelled(labels, n_classes=4):
    """Finite source whose row i has feature ``i`` and label ``labels[i]``."""
    return ListStream(
        [Instance(x=np.array([float(i)]), y=int(y)) for i, y in enumerate(labels)],
        schema=StreamSchema(n_features=1, n_classes=n_classes),
    )


class _SingleClassSource(DataStream):
    """Endless source that only ever emits class 0."""

    def __init__(self) -> None:
        super().__init__(StreamSchema(n_features=1, n_classes=3), seed=0)

    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        rows = self._position + np.arange(n, dtype=np.float64)
        return rows[:, None], np.zeros(n, dtype=np.int64)


class TestInverseCdfClasses:
    def test_matches_per_row_searchsorted(self):
        rng = np.random.default_rng(0)
        priors = rng.dirichlet(np.ones(5), size=200)
        u = rng.random(200)
        chosen = inverse_cdf_classes(priors, u, top=np.full(200, 4))
        expected = [
            min(int(np.searchsorted(np.cumsum(row), value, side="right")), 4)
            for row, value in zip(priors, u)
        ]
        np.testing.assert_array_equal(chosen, expected)

    def test_clips_to_the_top_class(self):
        # A CDF that falls short of 1 must not select past the last class.
        priors = np.array([[0.3, 0.3, 0.3]])
        assert inverse_cdf_classes(priors, np.array([0.95]), np.array([2]))[0] == 2

    def test_clip_never_resurrects_a_masked_class(self):
        priors = np.array([[0.4, 0.4, 0.0], [0.4, 0.4, 0.0]])
        chosen = inverse_cdf_classes(priors, np.array([0.9, 0.1]), np.array([1, 1]))
        np.testing.assert_array_equal(chosen, [1, 0])


class TestUniformReplayBuffer:
    def test_take_draws_fresh_rows_from_the_rng(self):
        buffer = UniformReplayBuffer(columns=4)
        rows = buffer.take(6, np.random.default_rng(3))
        np.testing.assert_array_equal(rows, np.random.default_rng(3).random((6, 4)))

    def test_stashed_rows_replay_before_fresh_draws(self):
        buffer = UniformReplayBuffer(columns=2)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        first = buffer.take(5, rng)
        buffer.stash(first[2:])
        replayed = buffer.take(4, rng)
        # Three stashed rows, then the row a twin RNG would draw sixth.
        np.testing.assert_array_equal(replayed, twin.random((6, 2))[2:])

    def test_partial_take_keeps_the_rest_pending(self):
        buffer = UniformReplayBuffer(columns=1)
        stashed = np.arange(5, dtype=np.float64)[:, None]
        buffer.stash(stashed)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(buffer.take(2, rng), stashed[:2])
        np.testing.assert_array_equal(buffer.take(3, rng), stashed[2:])
        np.testing.assert_array_equal(
            buffer.take(1, rng), np.random.default_rng(0).random((1, 1))
        )

    def test_empty_stash_and_clear_leave_nothing_pending(self):
        buffer = UniformReplayBuffer(columns=3)
        buffer.stash(np.empty((0, 3)))
        np.testing.assert_array_equal(
            buffer.take(2, np.random.default_rng(1)),
            np.random.default_rng(1).random((2, 3)),
        )
        buffer.stash(np.ones((4, 3)))
        buffer.clear()
        np.testing.assert_array_equal(
            buffer.take(2, np.random.default_rng(1)),
            np.random.default_rng(1).random((2, 3)),
        )

    def test_snapshot_round_trips_pending_rows(self):
        buffer = UniformReplayBuffer(columns=2)
        buffer.stash(np.array([[0.1, 0.2], [0.3, 0.4]]))
        clone = Snapshotable.from_snapshot(buffer.snapshot())
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            clone.take(2, rng), np.array([[0.1, 0.2], [0.3, 0.4]])
        )


class TestClassConditionalSampler:
    def test_returns_requested_class(self):
        sampler = _sampler(RandomRBFGenerator(n_classes=4, n_features=5, seed=0))
        _, labels = sampler.serve([2, 0, 3, 1, 2])
        assert labels == [2, 0, 3, 1, 2]

    def test_buffers_other_classes_and_serves_newest_first(self):
        sampler = _sampler(_labelled([1, 1, 0, 2]))
        x, y = sampler.serve([0])
        assert (float(x[0, 0]), y[0]) == (2.0, 0)
        # Rows 0 and 1 were buffered on the way; the newer one comes first.
        assert sampler.serve([1, 1])[0][:, 0].tolist() == [1.0, 0.0]

    def test_unreachable_class_falls_back_to_fullest_buffer(self):
        sampler = _sampler(_labelled([1, 2, 2, 1, 2, 0] * 4), max_draws=6)
        x, y = sampler.serve([3])
        # Six draws buffer three rows of class 2, two of 1 and one of 0.
        assert (float(x[0, 0]), y[0]) == (4.0, 2)

    def test_fallback_ties_break_toward_lowest_class(self):
        sampler = _sampler(_labelled([2, 1, 2, 1] * 4), max_draws=4)
        _, y = sampler.serve([3])
        assert y == [1]

    def test_no_draw_budget_emits_the_raw_source_row(self):
        sampler = _sampler(_labelled([2, 1, 0, 3]), max_draws=0)
        x, y = sampler.serve([0])
        assert (float(x[0, 0]), y[0]) == (0.0, 2)

    def test_allowed_classes_restrict_the_fallback(self):
        sampler = _sampler(_labelled([0, 0, 0, 2, 0, 0, 1] * 3), max_draws=3)
        x, y = sampler.serve([3], allowed=(1, 2))
        # The three class-0 rows fill the fullest buffer, but class 0 is not
        # allowed: the sampler keeps drawing until an allowed row appears.
        assert (float(x[0, 0]), y[0]) == (3.0, 2)

    def test_source_without_allowed_classes_fails_loudly(self):
        sampler = _sampler(_SingleClassSource(), max_draws=4, block_size=256)
        with pytest.raises(RuntimeError, match="active"):
            sampler.serve([1], allowed=(1, 2))

    def test_exhausted_source_serves_buffers_before_stopping(self):
        sampler = _sampler(_labelled([1, 2, 1]), max_draws=100)
        x, y = sampler.serve([0, 0, 0, 0])
        # Class 0 never appears: each request falls back to the fullest
        # buffer until the source is spent and every buffer is empty, and
        # the call returns the three rows served before that.
        assert list(zip(x[:, 0].tolist(), y)) == [(2.0, 1), (0.0, 1), (1.0, 2)]
        x, y = sampler.serve([0])
        assert x.shape == (0, 1) and y == []

    def test_draw_budget_counts_across_block_boundaries(self):
        # Blocks of 8 rows; class 3 first appears as the 11th row.
        labels = [1, 2] * 5 + [3]
        x, y = _sampler(_labelled(labels), max_draws=11).serve([3])
        assert (float(x[0, 0]), y[0]) == (10.0, 3)
        # One draw short, the request falls back to the fullest buffer (five
        # rows each of classes 1 and 2; ties go to class 1, newest first).
        x, y = _sampler(_labelled(labels), max_draws=10).serve([3])
        assert (float(x[0, 0]), y[0]) == (8.0, 1)

    def test_snapshot_restore_draws_the_block_again(self):
        def make():
            return _sampler(
                RandomRBFGenerator(n_classes=4, n_features=5, seed=4), block_size=16
            )

        requests = [3, 0, 0, 2, 1, 3, 3, 1, 0, 2, 2, 2]
        sampler = make()
        sampler.serve(requests)
        snapshot = loads_strict(dumps_strict(sampler.snapshot()))
        assert snapshot["version"] == 2
        state = snapshot["state"]
        assert state["rows"] == 16 and 0 < state["cursor"] < 16
        expected_x, expected_y = sampler.serve(requests)

        fresh = make()
        fresh.restore(snapshot)
        x, y = fresh.serve(requests)
        np.testing.assert_array_equal(x, expected_x)
        assert y == expected_y
        assert fresh.stream.position == sampler.stream.position

    def test_previous_block_is_freed_when_the_next_is_drawn(self):
        stream = RandomRBFGenerator(n_classes=4, n_features=5, seed=3)
        sampler = _sampler(stream, block_size=16)
        sampler.serve([0])
        first = weakref.ref(sampler._block)
        # Rows of other classes read on the way wait in the buffers as
        # indices into the block, not yet computed.
        assert any(type(e) is int for buffer in sampler.buffers for e in buffer)
        while stream.position == 16:
            sampler.serve([3, 2, 1, 0])
        assert first() is None

    def test_restore_refuses_a_source_that_yields_another_block(self):
        sampler = _sampler(_labelled([1, 2, 0, 1, 2]), block_size=8)
        sampler.serve([0])
        snapshot = sampler.snapshot()
        shorter = _sampler(_labelled([1, 2, 0]), block_size=8)
        with pytest.raises(SnapshotError, match="5-row block"):
            shorter.restore(snapshot)

    def test_source_is_read_in_whole_blocks(self):
        stream = RandomRBFGenerator(n_classes=4, n_features=5, seed=1)
        sampler = _sampler(stream, block_size=16)
        sampler.serve([0])
        assert stream.position == 16

    def test_restart_clears_buffers_and_rewinds_source(self):
        sampler = _sampler(RandomRBFGenerator(n_classes=4, n_features=5, seed=2))
        requests = [3, 3, 0, 1, 3, 2, 2, 0]
        first_x, first_y = sampler.serve(requests)
        sampler.restart()
        assert not any(sampler.buffers)
        second_x, second_y = sampler.serve(requests)
        np.testing.assert_array_equal(first_x, second_x)
        assert first_y == second_y
