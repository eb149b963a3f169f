"""Core data-stream abstractions.

The paper evaluates drift detectors on MOA data streams.  This module provides
the equivalent substrate: an :class:`Instance` record, a :class:`StreamSchema`
describing the feature space, and the :class:`DataStream` base class that every
generator and the schedule engine in :mod:`repro.streams` build on.

Streams are **batch-first**: a subclass implements one hook,
``_generate_batch(n)``, which produces ``(X, y)`` NumPy arrays for up to ``n``
instances in one call.  The per-instance iterator protocol
(:meth:`DataStream.next_instance` / ``__iter__``) reads batches of size one.
A subclass may also override :meth:`DataStream.generate_block`, which draws
rows like :meth:`~DataStream.generate_batch` but returns a
:class:`SourceBlock`: their labels at once, their features for any rows
asked for.  The class-conditional sampler of the schedule engine reads its
sources that way and computes features only for the rows it keeps.  The
default block holds features already computed; the stationary RBF
generator computes a row's features only when they are asked for.

Because every vectorized generator draws its randomness as one contiguous
block of uniform doubles per instance (see :mod:`repro.streams.vector_ops`),
``generate_batch(n)`` consumes the underlying bit stream exactly like ``n``
calls of ``next_instance()``: seeded outputs are bit-identical between the two
paths.  Streams remain fully reproducible through an explicit seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.snapshot import Snapshotable

__all__ = [
    "Instance",
    "StreamSchema",
    "SourceBlock",
    "DataStream",
    "ListStream",
    "take",
    "stream_to_arrays",
]


@dataclass(frozen=True)
class Instance:
    """A single labelled observation drawn from a data stream.

    Attributes
    ----------
    x:
        Feature vector as a 1-D ``float64`` NumPy array.
    y:
        Integer class label in ``[0, n_classes)``.
    weight:
        Optional instance weight (used by cost-sensitive learners).
    """

    x: np.ndarray
    y: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", int(self.y))

    @property
    def n_features(self) -> int:
        """Number of features in the instance."""
        return int(self.x.shape[0])


@dataclass(frozen=True)
class StreamSchema:
    """Static description of a stream's feature and label space."""

    n_features: int
    n_classes: int
    feature_names: tuple[str, ...] = field(default_factory=tuple)
    class_names: tuple[str, ...] = field(default_factory=tuple)
    name: str = "stream"

    def __post_init__(self) -> None:
        if self.n_features <= 0:
            raise ValueError(f"n_features must be positive, got {self.n_features}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if not self.feature_names:
            object.__setattr__(
                self,
                "feature_names",
                tuple(f"x{i}" for i in range(self.n_features)),
            )
        if not self.class_names:
            object.__setattr__(
                self,
                "class_names",
                tuple(f"class_{k}" for k in range(self.n_classes)),
            )
        if len(self.feature_names) != self.n_features:
            raise ValueError("feature_names length does not match n_features")
        if len(self.class_names) != self.n_classes:
            raise ValueError("class_names length does not match n_classes")


class SourceBlock:
    """Rows drawn from a stream: their labels now, their features on demand.

    ``labels`` is the ``(n,)`` int64 label array.  :meth:`features` returns
    the ``(len(rows), n_features)`` features of the rows at ``rows`` (row
    indices or a slice), and gives a row the same bits whichever rows are
    asked for with it and however often.  This base form holds features
    already computed; :meth:`DataStream.generate_block` documents when a
    stream returns another.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray) -> None:
        self.labels = labels
        self._features = features

    def features(self, rows: "np.ndarray | slice") -> np.ndarray:
        return self._features[rows]


class DataStream(Snapshotable, abc.ABC):
    """Base class for all data streams.

    A stream exposes its :class:`StreamSchema` and emits instances either in
    bulk through :meth:`generate_batch` (the fast path) or one at a time
    through :meth:`next_instance` / ``__iter__``.  Implementations must be
    deterministic for a given ``seed`` so that every experiment in the
    benchmark harness is reproducible, and the two paths must agree: a batch
    of ``n`` is bit-identical to ``n`` single draws from the same state.

    Streams are **restore-in-place** snapshotables: constructor inputs
    (schemas, concept factories, schedules) are not serialised, so a
    snapshot must be loaded with :meth:`~repro.core.snapshot.Snapshotable.restore`
    into an identically configured instance — after which the restored
    stream emits the bit-identical tail.  The base state is the generator
    bit-state plus position (plus the active concept for generators with
    ``set_concept``); the schedule engine and :class:`ListStream` contribute
    their samplers, replay buffers and cursors through :meth:`_snapshot_extra`.
    """

    SNAPSHOT_SELF_CONTAINED = False

    def __init__(self, schema: StreamSchema, seed: int | None = None) -> None:
        self._schema = schema
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._position = 0

    @property
    def schema(self) -> StreamSchema:
        """Schema describing features and classes of the stream."""
        return self._schema

    @property
    def n_features(self) -> int:
        return self._schema.n_features

    @property
    def n_classes(self) -> int:
        return self._schema.n_classes

    @property
    def name(self) -> str:
        return self._schema.name

    @property
    def position(self) -> int:
        """Number of instances emitted so far."""
        return self._position

    @property
    def seed(self) -> int | None:
        return self._seed

    def restart(self) -> None:
        """Reset the stream to its initial state (same seed, position zero)."""
        self._rng = np.random.default_rng(self._seed)
        self._position = 0

    # ------------------------------------------------------------- snapshots
    def _snapshot_state(self) -> dict:
        state: dict = {"rng": self._rng, "position": self._position}
        if hasattr(self, "set_concept") and hasattr(self, "_concept"):
            state["concept"] = self._concept
        extra = self._snapshot_extra()
        if extra:
            state["extra"] = extra
        return state

    def _restore_state(self, state: dict) -> None:
        if "concept" in state and state["concept"] != getattr(
            self, "_concept", None
        ):
            self.set_concept(int(state["concept"]))
        self._rng = state["rng"]
        self._position = int(state["position"])
        self._restore_extra(state.get("extra", {}))

    def _snapshot_extra(self) -> dict:
        """Subclass hook: extra mutable state beyond rng/position/concept."""
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Subclass hook: apply the state captured by :meth:`_snapshot_extra`."""

    # ------------------------------------------------------------ primitive
    @abc.abstractmethod
    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Produce up to ``n >= 1`` raw instances as ``(X, y)``.

        The hook must not advance :attr:`position` (:meth:`generate_batch`
        does) but may read it, e.g. for position-dependent schedules.
        Returning fewer than ``n`` rows signals exhaustion.
        """

    # --------------------------------------------------------------- reading
    def next_instance(self) -> Instance:
        """Return the next instance and advance the stream position.

        Raises :class:`StopIteration` when a finite stream is exhausted.
        """
        features, labels = self.generate_batch(1)
        if labels.shape[0] == 0:
            raise StopIteration(f"stream '{self.name}' exhausted")
        return Instance(x=features[0], y=int(labels[0]))

    def generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Return the next ``n`` instances as ``(X, y)`` arrays.

        ``X`` has shape ``(m, n_features)`` and ``y`` shape ``(m,)`` with
        ``m <= n``; ``m < n`` only when a finite stream is exhausted.  For a
        fixed seed the emitted values are bit-identical to ``n`` consecutive
        :meth:`next_instance` calls.
        """
        n = int(n)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n == 0:
            return self._empty_batch()
        features, labels = self._generate_batch(n)
        self._position += int(labels.shape[0])
        return features, labels

    def generate_block(self, n: int) -> SourceBlock:
        """Draw the next ``n`` rows as a :class:`SourceBlock`.

        Consumes the stream and advances :attr:`position` exactly like
        ``generate_batch(n)``, whose rows the block holds.  A stream whose
        labels do not depend on its features may override this to compute
        a row's features only when :meth:`SourceBlock.features` asks; this
        default draws through :meth:`generate_batch`.
        """
        features, labels = self.generate_batch(n)
        return SourceBlock(features, labels)

    def _empty_batch(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.empty((0, self.n_features), dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )

    def __iter__(self) -> Iterator[Instance]:
        # PEP 479: a StopIteration escaping a generator body becomes a
        # RuntimeError, so exhaustion must be converted into a plain return.
        while True:
            try:
                instance = self.next_instance()
            except StopIteration:
                return
            yield instance

    def take(self, n: int) -> list[Instance]:
        """Collect up to ``n`` instances into a list.

        A finite stream that runs out mid-way returns the remaining instances
        instead of raising.
        """
        out: list[Instance] = []
        for _ in range(n):
            try:
                out.append(self.next_instance())
            except StopIteration:
                break
        return out


class ListStream(DataStream):
    """A finite stream backed by an in-memory list of instances.

    Useful for tests and for replaying previously materialised streams.
    :meth:`next_instance` raises :class:`StopIteration` once exhausted;
    :meth:`generate_batch` and iteration terminate cleanly instead.
    """

    def __init__(
        self,
        instances: Sequence[Instance],
        schema: StreamSchema | None = None,
        name: str = "list-stream",
    ) -> None:
        if not instances:
            raise ValueError("ListStream requires at least one instance")
        if schema is None:
            n_features = instances[0].n_features
            n_classes = max(inst.y for inst in instances) + 1
            schema = StreamSchema(
                n_features=n_features, n_classes=max(2, n_classes), name=name
            )
        super().__init__(schema, seed=None)
        self._features = np.vstack([inst.x for inst in instances])
        self._labels = np.asarray([inst.y for inst in instances], dtype=np.int64)
        self._cursor = 0

    def restart(self) -> None:
        super().restart()
        self._cursor = 0

    def _snapshot_extra(self) -> dict:
        return {"cursor": self._cursor}

    def _restore_extra(self, extra: dict) -> None:
        self._cursor = int(extra["cursor"])

    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        end = min(self._cursor + n, len(self))
        features = self._features[self._cursor : end].copy()
        labels = self._labels[self._cursor : end].copy()
        self._cursor = end
        return features, labels

    def __len__(self) -> int:
        return int(self._labels.shape[0])


def take(stream: Iterable[Instance], n: int) -> list[Instance]:
    """Take up to ``n`` instances from any iterable of instances."""
    out: list[Instance] = []
    for instance in stream:
        out.append(instance)
        if len(out) >= n:
            break
    return out


def stream_to_arrays(instances: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
    """Stack a sequence of instances into ``(X, y)`` NumPy arrays."""
    if not instances:
        raise ValueError("cannot convert an empty instance sequence")
    features = np.vstack([inst.x for inst in instances])
    labels = np.asarray([inst.y for inst in instances], dtype=np.int64)
    return features, labels
