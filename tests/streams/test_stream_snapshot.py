"""Snapshot/restore round-trips for streams and scenarios.

Streams are restore-in-place snapshotables: a snapshot loaded (after a
strict-JSON round-trip, exactly what a persisted checkpoint goes through)
into an *identically configured* instance must emit the bit-identical tail —
generator RNG bit-state, pending-uniform replay buffers, list cursors and
per-class sampler buffers included.  The scenario sweep below covers every
registered scenario family, hence every generator and schedule feature the
protocol composes; the generator sweep adds the state those families never
reach (a drifting hyperplane, moving centroids, a switched concept).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.jsonio import dumps_strict, loads_strict
from repro.core.snapshot import SnapshotError
from repro.streams.base import ListStream
from repro.streams.generators import (
    AgrawalGenerator,
    HyperplaneGenerator,
    RandomRBFGenerator,
    RandomTreeGenerator,
    SEAGenerator,
)
from repro.streams.sampling import SOURCE_BLOCK_SIZE
from repro.streams.scenarios import (
    SCENARIO_BUILDERS,
    build_scenario_stream,
    make_artificial_stream,
)
from repro.streams.schedule import Schedule, ScheduledStream, Segment
from test_batch_parity import TestFiniteSourceExhaustion as _Finite

N_INSTANCES = 900
HEAD = 413  # deliberately not a multiple of any chunk size in play
TAIL = 300


def _json_roundtrip(snapshot: dict) -> dict:
    return loads_strict(dumps_strict(snapshot))


def _checkpoint_tail(make_stream, head: int = HEAD, tail: int = TAIL):
    """(expected tail, snapshot at head) of one seeded stream realization."""
    stream = make_stream()
    stream.generate_batch(head)
    snapshot = _json_roundtrip(stream.snapshot())
    expected = stream.generate_batch(tail)
    return expected, snapshot


@pytest.mark.parametrize("scenario", sorted(SCENARIO_BUILDERS))
def test_scenario_stream_restores_identical_tail(scenario: int) -> None:
    def make():
        return build_scenario_stream(
            scenario,
            family="rbf",
            n_classes=3,
            n_instances=N_INSTANCES,
            n_drifts=2,
            max_imbalance_ratio=20.0,
            seed=11,
        ).stream

    (expected_x, expected_y), snapshot = _checkpoint_tail(make)

    fresh = make()
    fresh.restore(snapshot)
    assert fresh.position == HEAD
    got_x, got_y = fresh.generate_batch(TAIL)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)


@pytest.mark.parametrize("family", ["agrawal", "hyperplane", "rbf", "randomtree"])
def test_artificial_family_restores_identical_tail(family: str) -> None:
    def make():
        return make_artificial_stream(
            family, n_classes=3, n_instances=N_INSTANCES, seed=7
        ).stream

    (expected_x, expected_y), snapshot = _checkpoint_tail(make)
    fresh = make()
    fresh.restore(snapshot)
    got_x, got_y = fresh.generate_batch(TAIL)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)


GENERATORS = {
    "agrawal": lambda: AgrawalGenerator(n_classes=5, n_features=20, seed=3),
    "agrawal-unperturbed": lambda: AgrawalGenerator(
        n_classes=5, n_features=20, perturbation=0.0, seed=3
    ),
    "hyperplane": lambda: HyperplaneGenerator(n_classes=5, n_features=10, seed=3),
    # The drifting plane and the moving centroids carry state beyond the RNG
    # that the snapshot must hold (``_snapshot_extra``).
    "hyperplane-drift": lambda: HyperplaneGenerator(
        n_classes=5, n_features=10, mag_change=0.01, seed=3
    ),
    "rbf": lambda: RandomRBFGenerator(n_classes=4, n_features=8, seed=3),
    "rbf-moving": lambda: RandomRBFGenerator(
        n_classes=4, n_features=8, centroid_speed=0.01, seed=3
    ),
    "randomtree": lambda: RandomTreeGenerator(
        n_classes=4, n_features=6, noise=0.1, seed=3
    ),
    "sea": lambda: SEAGenerator(n_classes=3, seed=3),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_restores_identical_tail(name: str) -> None:
    make = GENERATORS[name]
    (expected_x, expected_y), snapshot = _checkpoint_tail(make)
    fresh = make()
    fresh.restore(snapshot)
    assert fresh.position == HEAD
    got_x, got_y = fresh.generate_batch(TAIL)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)


@pytest.mark.parametrize(
    "name", ["agrawal", "hyperplane-drift", "rbf-moving", "randomtree", "sea"]
)
def test_restore_follows_a_concept_switch(name: str) -> None:
    """A snapshot taken after ``set_concept`` moves a fresh generator (still
    on concept 0) to the recorded concept before it replays the tail."""
    make = GENERATORS[name]
    stream = make()
    stream.generate_batch(100)
    stream.set_concept(2)
    stream.generate_batch(HEAD - 100)
    snapshot = _json_roundtrip(stream.snapshot())
    expected_x, expected_y = stream.generate_batch(TAIL)

    fresh = make()
    fresh.restore(snapshot)
    assert fresh.concept == 2
    got_x, got_y = fresh.generate_batch(TAIL)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)


@pytest.mark.parametrize("name", ["hyperplane-drift", "rbf-moving"])
def test_restore_rewinds_drifted_generator_state(name: str) -> None:
    """Restoring backwards into the same generator puts the plane weights or
    the centroid centres back where they were at the checkpoint."""
    make = GENERATORS[name]
    (expected_x, expected_y), snapshot = _checkpoint_tail(make)
    advanced = make()
    advanced.generate_batch(HEAD + 350)
    advanced.restore(snapshot)
    got_x, got_y = advanced.generate_batch(TAIL)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)


def test_restore_rewinds_an_advanced_stream() -> None:
    """Restoring *backwards* into the same object must also be exact.

    This is the chunk-rollback direction: the stream has advanced past the
    checkpoint (stale per-concept samplers, drift carries, later schedule
    cursor) and must come all the way back.
    """

    def make():
        return build_scenario_stream(
            4,  # recurring drift: concepts revisit, samplers accumulate
            family="rbf",
            n_classes=3,
            n_instances=N_INSTANCES,
            n_drifts=2,
            max_imbalance_ratio=20.0,
            seed=23,
        ).stream

    (expected_x, expected_y), snapshot = _checkpoint_tail(make)
    advanced = make()
    advanced.generate_batch(HEAD + 350)  # well past the checkpoint
    advanced.restore(snapshot)
    got_x, got_y = advanced.generate_batch(TAIL)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)


def test_restore_is_chunking_invariant() -> None:
    """The restored tail is identical however the original was chunked."""

    def make():
        return make_artificial_stream(
            "hyperplane", n_classes=3, n_instances=N_INSTANCES, seed=5
        ).stream

    stream = make()
    for chunk in (64, 64, 64, 64, 64, 64, 29):  # 413 = HEAD, ragged end
        stream.generate_batch(chunk)
    snapshot = _json_roundtrip(stream.snapshot())
    expected_x, expected_y = stream.generate_batch(TAIL)

    fresh = make()
    fresh.restore(snapshot)
    parts = [fresh.generate_batch(100) for _ in range(3)]
    got_x = np.vstack([x for x, _ in parts])
    got_y = np.concatenate([y for _, y in parts])
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)


def test_list_stream_cursor_roundtrip() -> None:
    rng = np.random.default_rng(0)
    from repro.streams.base import Instance

    instances = [
        Instance(x=rng.random(3), y=int(rng.integers(0, 2))) for _ in range(40)
    ]
    stream = ListStream(instances)
    stream.generate_batch(17)
    snapshot = _json_roundtrip(stream.snapshot())
    expected_x, expected_y = stream.generate_batch(10)

    fresh = ListStream(instances)
    fresh.restore(snapshot)
    got_x, got_y = fresh.generate_batch(10)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)


def test_streams_are_restore_in_place_only() -> None:
    from repro.core.snapshot import Snapshotable

    stream = make_artificial_stream(
        "rbf", n_classes=3, n_instances=N_INSTANCES, seed=1
    ).stream
    with pytest.raises(SnapshotError):
        Snapshotable.from_snapshot(stream.snapshot())


def _sampler_states(snapshot: dict) -> dict:
    """Encoded sampler state per concept of a ``ScheduledStream`` snapshot."""
    pairs = snapshot["state"]["extra"]["samplers"]["__map__"]
    return {concept: sampler["__snap__"]["state"] for concept, sampler in pairs}


def _arrays(value) -> list:
    """Every encoded array (``__nd__`` payload) inside ``value``."""
    if isinstance(value, dict):
        own = [value["__nd__"]] if "__nd__" in value else []
        return own + [a for item in value.values() for a in _arrays(item)]
    if isinstance(value, list):
        return [a for item in value for a in _arrays(item)]
    return []


def _assert_restores_tail(make, head: int, tail: int) -> "tuple[dict, int]":
    """Snapshot ``make()`` after ``head`` rows, restore it through strict
    JSON into a fresh stream, and compare the next ``tail`` rows; returns
    the JSON-round-tripped snapshot and how many tail rows came."""
    (expected_x, expected_y), snapshot = _checkpoint_tail(make, head, tail)
    fresh = make()
    fresh.restore(snapshot)
    assert fresh.position == head
    got_x, got_y = fresh.generate_batch(tail)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)
    return snapshot, expected_y.shape[0]


def _assert_holds_no_block(state: dict, n_features: int) -> None:
    """A sampler's encoded state names its block by row count and cursor;
    the only arrays in it are the source's and the buffered rows, and every
    buffered entry is a computed row, none an index into the block."""
    assert not {"block_x", "block_y"} & set(state)
    origin = state["origin"]["__snap__"]
    entries = [e for buffer in state["buffers"] for e in buffer["__deque__"]["items"]]
    buffered = _arrays(state["buffers"])
    assert len(buffered) == len(entries)
    assert all(a["shape"] == [n_features] for a in buffered)
    assert len(_arrays(state)) == len(buffered) + len(_arrays(origin))


def test_sampler_snapshot_mid_block_before_a_concept_is_reached() -> None:
    """Concept 0's sampler is part-way through its block and concept 1's
    does not exist yet: the restored stream draws concept 0's block again
    from the stored source state and creates concept 1's sampler fresh."""

    def make():
        return ScheduledStream(
            lambda concept: RandomRBFGenerator(
                n_classes=4, n_features=8, concept=concept, seed=5
            ),
            Schedule.of(
                Segment(length=300, concept=0), Segment(length=300, concept=1)
            ),
            seed=6,
        )

    snapshot, _ = _assert_restores_tail(make, head=200, tail=400)
    states = _sampler_states(snapshot)
    assert list(states) == [0]
    state = states[0]
    assert state["rows"] == SOURCE_BLOCK_SIZE
    assert 0 < state["cursor"] < state["rows"]
    _assert_holds_no_block(state, n_features=8)


def test_sampler_snapshot_with_a_short_last_block() -> None:
    """Finite sources shorter than one block: each sampler's only block is
    short, and restore draws exactly that many rows again.  The tail runs
    until both the original and the restored stream are spent."""

    def make():
        return _Finite._make(n_base=8, n_drift=30)

    snapshot, n_tail = _assert_restores_tail(make, head=12, tail=1_000)
    assert 0 < n_tail < 1_000
    states = _sampler_states(snapshot)
    assert sorted(states) == [0, 1]
    assert [states[c]["rows"] for c in (0, 1)] == [8, 30]
    for state in states.values():
        _assert_holds_no_block(state, n_features=2)


def test_snapshot_computes_rows_still_owed_by_the_block() -> None:
    """A sampler buffers rows of its current block as uncomputed indices.
    A snapshot taken while it does computes them, and changes nothing the
    stream emits: it goes on like a twin never snapshotted, and a fresh
    stream restored from the snapshot emits the same rows."""

    def make():
        return build_scenario_stream(
            4,
            family="rbf",
            n_classes=5,
            n_instances=40_000,
            n_drifts=3,
            max_imbalance_ratio=100.0,
            seed=1,
        ).stream

    stream, twin = make(), make()
    stream.generate_batch(HEAD)
    twin.generate_batch(HEAD)
    samplers = stream._samplers.values()
    assert any(
        type(e) is int for s in samplers for buffer in s.buffers for e in buffer
    )
    snapshot = _json_roundtrip(stream.snapshot())
    for state in _sampler_states(snapshot).values():
        assert 0 < state["cursor"] < state["rows"]
        _assert_holds_no_block(state, n_features=stream.n_features)
    expected_x, expected_y = twin.generate_batch(TAIL)
    fresh = make()
    fresh.restore(snapshot)
    for other in (stream, fresh):
        got_x, got_y = other.generate_batch(TAIL)
        np.testing.assert_array_equal(got_x, expected_x)
        np.testing.assert_array_equal(got_y, expected_y)


def test_restart_snapshots_like_a_fresh_stream() -> None:
    """``restart`` keeps only the first concept's sampler, restarted: a
    stream restarted after it reached a second concept snapshots like a
    fresh one (the dropped samplers are rebuilt when reached again) and
    emits the same rows."""

    def make():
        return build_scenario_stream(
            4,
            family="rbf",
            n_classes=5,
            n_instances=40_000,
            n_drifts=3,
            max_imbalance_ratio=100.0,
            seed=1,
        ).stream

    stream = make()
    stream.generate_batch(12_000)
    assert len(_sampler_states(stream.snapshot())) > 1
    stream.restart()
    fresh = make()
    assert dumps_strict(stream.snapshot()) == dumps_strict(fresh.snapshot())
    got_x, got_y = stream.generate_batch(3_000)
    expected_x, expected_y = fresh.generate_batch(3_000)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)
