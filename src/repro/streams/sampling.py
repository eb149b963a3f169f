"""Parity-critical sampling plumbing of the schedule engine.

:class:`~repro.streams.schedule.ScheduledStream` re-samples its per-concept
source streams class-conditionally.  The repo's chunk-exactness contract
rests on two subtle invariants of that re-sampling, kept here apart from the
schedule logic:

* **uniform replay** — uniforms drawn for positions that could not be
  emitted (a finite source exhausted mid-batch) must be replayed before any
  fresh RNG draw, otherwise the batch path's RNG consumption diverges from
  per-instance iteration at the truncation point;
* **deterministic fallback order** — when the requested class cannot be
  produced, the fallback chain (per-class buffer, newest first → fullest
  buffer → raw source row) must be identical however the stream is read.

Rejection sampling reads many more source rows than it emits (about 3.4 per
emitted row on the seed-1 scenario-4 RBF stream), so the sampler reads a
row's label when it draws the row but computes the row's features only when
it emits the row, or still buffers it when its block is replaced or
snapshotted (:meth:`repro.streams.base.DataStream.generate_block`).  It
serves a whole run of requests in one :meth:`ClassConditionalSampler.serve`
call.  Neither changes which rows are emitted, nor their bits.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Sequence

import numpy as np

from repro.core.snapshot import SnapshotError, Snapshotable, encode_state
from repro.streams.base import DataStream, SourceBlock

__all__ = [
    "MAX_BUFFER_PER_CLASS",
    "SOURCE_BLOCK_SIZE",
    "UniformReplayBuffer",
    "ClassConditionalSampler",
    "inverse_cdf_classes",
]

#: Rows a sampler buffers per class, and source rows it draws at a time.
MAX_BUFFER_PER_CLASS = 32
SOURCE_BLOCK_SIZE = 1_024


def inverse_cdf_classes(
    priors: np.ndarray, u: np.ndarray, top: np.ndarray
) -> np.ndarray:
    """Row-wise inverse-CDF class choice from prior rows and one uniform each.

    Equivalent to ``searchsorted(cumsum(priors[i]), u[i], side="right")`` per
    row, clipped to the per-row ``top`` class (the largest *active* class of
    a segment) so floating error at the top of the CDF can neither select
    past the last class nor resurrect a masked-out one.  The operation order
    is part of the seeded realization: a single ULP of divergence in the CDF
    comparison would change which class a uniform selects.
    """
    cdf = np.cumsum(priors, axis=1)
    return np.minimum((cdf <= u[:, None]).sum(axis=1), top)


class UniformReplayBuffer(Snapshotable):
    """Uniform draws with exact replay of rows returned to the buffer.

    ``take(n, rng)`` serves pending (previously stashed) rows first and only
    then draws fresh uniforms — the same consumption order as ``n``
    per-instance draws.  Each row holds ``columns`` uniforms.
    ``stash(rows)`` returns the undecided tail of a truncated batch for
    replay by the next call.
    """

    def __init__(self, columns: int) -> None:
        self._columns = columns
        self._pending: np.ndarray | None = None

    def take(self, n: int, rng: np.random.Generator) -> np.ndarray:
        pending = self._pending
        if pending is None:
            head = np.empty((0, self._columns))
        else:
            used = min(n, pending.shape[0])
            head = pending[:used]
            self._pending = pending[used:] if used < pending.shape[0] else None
        fresh = n - head.shape[0]
        if fresh == 0:
            return head
        return np.concatenate([head, rng.random((fresh, self._columns))])

    def stash(self, unused: np.ndarray) -> None:
        self._pending = unused if unused.shape[0] else None

    def clear(self) -> None:
        self._pending = None


class ClassConditionalSampler(Snapshotable):
    """Class-conditional rejection sampler over one source stream.

    Draws source rows in blocks of ``block_size`` (block boundaries depend
    only on the cumulative number of rows requested, never on chunking),
    buffers rows of other classes per class, and serves requests
    newest-first so emitted instances track the current state of the
    source.  When the requested class does not appear within ``max_draws``
    rows (counted across block boundaries) the sampler falls back
    deterministically: pop the fullest buffer, else emit the next source
    row as-is — the stream never aborts mid-run.  :meth:`serve` answers a
    run of requests in one call and stops short only when the source is
    exhausted *and* every buffer it may fall back on is empty.

    The source is read through :meth:`DataStream.generate_block`, so a row
    is labelled when drawn but its features are computed only when needed:
    a buffer holds a row of the current block as its index there, and a
    served row of it as a pending index until the call returns.  Every
    index still pending is computed, in one call, before the next block
    replaces the current one and when a snapshot is taken; so at most one
    block is held per sampler, and rows that fall out of a buffer while
    their block is current are never computed.

    A snapshot holds the buffered rows, the source's snapshot from just
    before the current block was drawn (its current state before the first
    block), the block's row count and the cursor into it, but not the block
    itself: restore puts the source back and draws the block again.
    """

    __slots__ = (
        "stream", "buffers", "max_draws", "block_size", "_origin", "_block",
        "_labels", "_cursor", "_served",
    )

    #: 2: the current block is stored as the source state it was drawn from.
    SNAPSHOT_VERSION = 2

    def __init__(
        self,
        stream: DataStream,
        n_classes: int,
        max_buffer: int,
        max_draws: int,
        block_size: int,
    ) -> None:
        self.stream = stream
        # Buffered rows per class, newest last: a computed feature row, or
        # the index of an uncomputed row of the current block.
        self.buffers: list[Deque[np.ndarray | int]] = [
            deque(maxlen=max_buffer) for _ in range(n_classes)
        ]
        self.max_draws = max_draws
        self.block_size = block_size
        self._origin: dict | None = None
        self._block: SourceBlock | None = None
        self._labels: list[int] = []
        self._cursor = 0
        # While serve() runs: its feature rows, and the positions in them
        # owed a row of the current block with those rows' indices.
        self._served: tuple[np.ndarray, list[int], list[int]] | None = None

    # The wrapped stream holds un-serialisable factories, so the sampler is
    # restore-in-place like the streams themselves.
    SNAPSHOT_SELF_CONTAINED = False

    def snapshot(self) -> dict:
        snapshot = super().snapshot()
        # Encoded as a nested snapshot of the source, so that
        # ``snapshot_matches`` checks its kind and version too.
        snapshot["state"]["origin"] = self._origin or encode_state(self.stream)
        return snapshot

    def _snapshot_state(self) -> dict:
        self._settle()
        return {
            "buffers": self.buffers,
            "rows": len(self._labels),
            "cursor": self._cursor,
        }

    def _restore_state(self, state: dict) -> None:
        self.stream.restore(state["origin"])
        self._origin, self._block, self._labels = None, None, []
        rows = int(state["rows"])
        if rows and self._draw_block(rows) != rows:
            raise SnapshotError(
                f"source '{self.stream.name}' no longer yields the "
                f"{rows}-row block the snapshot was taken in"
            )
        self._cursor = int(state["cursor"])
        self.buffers = state["buffers"]

    def restart(self) -> None:
        self.stream.restart()
        for buffer in self.buffers:
            buffer.clear()
        self._origin, self._block, self._labels = None, None, []
        self._cursor = 0

    def _settle(self) -> None:
        """Compute every row the current block still owes, in one call:
        rows buffered as indices and rows a running :meth:`serve` emitted."""
        if self._block is None:
            return
        slots = [
            (buffer, j)
            for buffer in self.buffers
            for j, entry in enumerate(buffer)
            if type(entry) is int
        ]
        features, at, owed = self._served or (None, [], [])
        if not slots and not owed:
            return
        computed = self._block.features(
            np.array([buffer[j] for buffer, j in slots] + owed)
        )
        for (buffer, j), row in zip(slots, computed):
            buffer[j] = row
        if owed:
            features[at] = computed[len(slots):]
            at.clear()
            owed.clear()

    def _draw_block(self, n: int) -> int:
        """Make the source's next ``n`` rows the current block.

        Returns how many rows came; on 0 (the source is spent) the previous
        block stays current.
        """
        origin = encode_state(self.stream)
        block = self.stream.generate_block(n)
        if block.labels.shape[0]:
            self._settle()
            self._origin, self._block = origin, block
            self._labels = block.labels.tolist()
            self._cursor = 0
        return block.labels.shape[0]

    def _scan(self, accepted: "tuple[int, ...] | range", draws: int) -> int | None:
        """Read source rows until one of an ``accepted`` class comes.

        Every row read before it goes to its class's buffer.  Returns that
        row's index in the current block, or ``None`` once ``draws`` rows
        were read without one; raises :class:`StopIteration` if the source
        runs dry first.
        """
        buffers = self.buffers
        while draws:
            cursor, labels = self._cursor, self._labels
            if cursor == len(labels):
                if not self._draw_block(self.block_size):
                    raise StopIteration(f"source '{self.stream.name}' exhausted")
                cursor, labels = 0, self._labels
            stop = min(len(labels), cursor + draws)
            for i in range(cursor, stop):
                y = labels[i]
                if y in accepted:
                    self._cursor = i + 1
                    return i
                buffers[y].append(i)
            self._cursor = stop
            draws -= stop - cursor
        return None

    def serve(
        self, wanted: Sequence[int], allowed: "tuple[int, ...] | None" = None
    ) -> tuple[np.ndarray, list[int]]:
        """Rows ``(X, y)`` for a run of requests, one of (ideally) class
        ``wanted[k]`` for each ``k``, in order.

        With ``allowed`` given (class arrival/removal), every fallback is
        restricted to the allowed classes so a removed class can never be
        re-emitted past its declared ground-truth change point.  Fewer rows
        than requests come back only when the source ran dry: the rows
        served before that.
        """
        buffers = self.buffers
        candidates = range(len(buffers)) if allowed is None else allowed
        features = np.empty((len(wanted), self.stream.n_features))
        labels: list[int] = []
        at: list[int] = []
        owed: list[int] = []
        self._served = (features, at, owed)
        try:
            for position, c in enumerate(wanted):
                if buffers[c]:
                    entry, y = buffers[c].pop(), c
                else:
                    try:
                        entry, y = self._serve_unbuffered(c, candidates)
                    except StopIteration:
                        break
                if type(entry) is int:
                    at.append(position)
                    owed.append(entry)
                else:
                    features[position] = entry
                labels.append(y)
            if owed:
                features[at] = self._block.features(np.array(owed))
        finally:
            self._served = None
        return features[: len(labels)], labels

    def _serve_unbuffered(
        self, wanted: int, candidates: "tuple[int, ...] | range"
    ) -> "tuple[np.ndarray | int, int]":
        """Serve one request whose class buffer is empty: the row (computed,
        or its index in the current block) and its class.

        Raises :class:`StopIteration` when the source is spent and every
        candidate buffer is empty.
        """
        try:
            found = self._scan((wanted,), self.max_draws)
        except StopIteration:
            found = None  # the buffers may still serve this request
        if found is not None:
            return found, wanted
        # Deterministic fallback: fullest candidate buffer first — ties break
        # toward the lowest class index — then the raw source.
        buffers = self.buffers
        fullest = max(candidates, key=lambda c: len(buffers[c]))
        if buffers[fullest]:
            return buffers[fullest].pop(), fullest
        # Last resort: the next source row of a candidate class (of any
        # class when none is masked).  The budget floor is deliberately
        # generous and independent of the (tunable) per-request
        # ``max_draws``: only a source that cannot produce *any* allowed
        # class should fail — loudly, rather than silently violating the
        # declared class-removal ground truth.
        budget = max(self.max_draws, 10_000)
        found = self._scan(candidates, budget)
        if found is None:
            raise RuntimeError(
                f"source '{self.stream.name}' produced none of the active "
                f"classes {tuple(candidates)} within {budget} draws"
            )
        return found, self._labels[found]
