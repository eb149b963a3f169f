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
"""

from __future__ import annotations

from collections import deque
from typing import Deque

import numpy as np

from repro.core.snapshot import SnapshotError, Snapshotable, encode_state
from repro.streams.base import DataStream

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
    row as-is — the stream never aborts mid-run.  :class:`StopIteration` is
    raised only when the source is exhausted *and* every buffer is empty.

    A snapshot holds the buffered rows, the source's snapshot from just
    before the current block was drawn (its current state before the first
    block), the block's row count and the cursor into it, but not the block
    itself: restore puts the source back and draws the block again.
    """

    __slots__ = (
        "stream", "buffers", "max_draws", "block_size", "_origin", "_rows",
        "_labels", "_cursor",
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
        # Buffered rows per class, newest last.
        self.buffers: list[Deque[np.ndarray]] = [
            deque(maxlen=max_buffer) for _ in range(n_classes)
        ]
        self.max_draws = max_draws
        self.block_size = block_size
        self._origin: dict | None = None
        self._rows: list[np.ndarray] = []
        self._labels: list[int] = []
        self._cursor = 0

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
        return {
            "buffers": self.buffers,
            "rows": len(self._labels),
            "cursor": self._cursor,
        }

    def _restore_state(self, state: dict) -> None:
        self.stream.restore(state["origin"])
        self._origin, self._rows, self._labels = None, [], []
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
        self._origin, self._rows, self._labels = None, [], []
        self._cursor = 0

    def _draw_block(self, n: int) -> int:
        """Make the source's next ``n`` rows the current block.

        Returns how many rows came; on 0 (the source is spent) the previous
        block stays current.
        """
        origin = encode_state(self.stream)
        block_x, block_y = self.stream.generate_batch(n)
        if block_y.shape[0]:
            self._origin = origin
            self._rows, self._labels = list(block_x), block_y.tolist()
            self._cursor = 0
        return block_y.shape[0]

    def _scan(
        self, accepted: "tuple[int, ...] | range", draws: int
    ) -> "tuple[np.ndarray, int] | None":
        """Read source rows until one of an ``accepted`` class comes.

        Every row read before it goes to its class's buffer.  Returns that
        row as ``(x, y)``, or ``None`` once ``draws`` rows were read without
        one; raises :class:`StopIteration` if the source runs dry first.
        """
        buffers = self.buffers
        while draws:
            cursor, labels = self._cursor, self._labels
            if cursor == len(labels):
                if not self._draw_block(self.block_size):
                    raise StopIteration(f"source '{self.stream.name}' exhausted")
                cursor, labels = 0, self._labels
            rows = self._rows
            stop = min(len(labels), cursor + draws)
            for i in range(cursor, stop):
                y = labels[i]
                if y in accepted:
                    self._cursor = i + 1
                    return rows[i], y
                buffers[y].append(rows[i])
            self._cursor = stop
            draws -= stop - cursor
        return None

    def sample(
        self, wanted: int, allowed: "tuple[int, ...] | None" = None
    ) -> tuple[np.ndarray, int]:
        """One ``(x, y)`` of (ideally) class ``wanted``.

        With ``allowed`` given (class arrival/removal), every fallback is
        restricted to the allowed classes so a removed class can never be
        re-emitted past its declared ground-truth change point.
        """
        buffers = self.buffers
        if buffers[wanted]:
            return buffers[wanted].pop(), wanted
        try:
            row = self._scan((wanted,), self.max_draws)
        except StopIteration:
            row = None  # the buffers may still serve this request
        if row is not None:
            return row
        # Deterministic fallback: fullest (allowed) buffer first — ties break
        # toward the lowest class index — then the raw source.
        candidates = range(len(buffers)) if allowed is None else allowed
        fullest = max(candidates, key=lambda c: len(buffers[c]))
        if buffers[fullest]:
            return buffers[fullest].pop(), fullest
        # Last resort: the next source row of an allowed class (of any class
        # when none is masked).  The budget floor is deliberately generous
        # and independent of the (tunable) per-request ``max_draws``: only a
        # source that cannot produce *any* allowed class should fail —
        # loudly, rather than silently violating the declared class-removal
        # ground truth.
        budget = max(self.max_draws, 10_000)
        row = self._scan(candidates, budget)
        if row is None:
            raise RuntimeError(
                f"source '{self.stream.name}' produced none of the active "
                f"classes {allowed} within {budget} draws"
            )
        return row
