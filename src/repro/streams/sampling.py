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

from repro.core.snapshot import Snapshotable
from repro.streams.base import DataStream

__all__ = [
    "UniformReplayBuffer",
    "ClassConditionalSampler",
    "inverse_cdf_classes",
]


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
    the sampler falls back deterministically: pop the fullest buffer, else
    emit the next source row as-is — the stream never aborts mid-run.
    :class:`StopIteration` is raised only when the source is exhausted *and*
    every buffer is empty.
    """

    __slots__ = (
        "stream", "buffers", "max_draws", "block_size", "_block_x",
        "_block_y", "_cursor",
    )

    def __init__(
        self,
        stream: DataStream,
        n_classes: int,
        max_buffer: int,
        max_draws: int,
        block_size: int,
    ) -> None:
        self.stream = stream
        self.buffers: list[Deque[tuple[np.ndarray, int]]] = [
            deque(maxlen=max_buffer) for _ in range(n_classes)
        ]
        self.max_draws = max_draws
        self.block_size = block_size
        self._block_x: np.ndarray | None = None
        self._block_y: np.ndarray | None = None
        self._cursor = 0

    # The wrapped stream holds un-serialisable factories, so the sampler is
    # restore-in-place like the streams themselves.
    SNAPSHOT_SELF_CONTAINED = False

    def _snapshot_state(self) -> dict:
        return {
            "stream": self.stream,
            "buffers": self.buffers,
            "block_x": self._block_x,
            "block_y": self._block_y,
            "cursor": self._cursor,
        }

    def _restore_state(self, state: dict) -> None:
        self.stream.restore(state["stream"])
        self.buffers = state["buffers"]
        self._block_x = state["block_x"]
        self._block_y = state["block_y"]
        self._cursor = int(state["cursor"])

    def restart(self) -> None:
        self.stream.restart()
        for buffer in self.buffers:
            buffer.clear()
        self._block_x = None
        self._block_y = None
        self._cursor = 0

    def _next_row(self) -> tuple[np.ndarray, int]:
        if self._block_y is None or self._cursor >= self._block_y.shape[0]:
            block_x, block_y = self.stream.generate_batch(self.block_size)
            if block_y.shape[0] == 0:
                raise StopIteration(f"source '{self.stream.name}' exhausted")
            self._block_x, self._block_y, self._cursor = block_x, block_y, 0
        row = self._block_x[self._cursor], int(self._block_y[self._cursor])
        self._cursor += 1
        return row

    def sample(
        self, wanted: int, allowed: "tuple[int, ...] | None" = None
    ) -> tuple[np.ndarray, int]:
        """One ``(x, y)`` of (ideally) class ``wanted``.

        With ``allowed`` given (class arrival/removal), every fallback is
        restricted to the allowed classes so a removed class can never be
        re-emitted past its declared ground-truth change point.
        """
        buffer = self.buffers[wanted]
        if buffer:
            return buffer.pop()
        exhausted = False
        for _ in range(self.max_draws):
            try:
                x, y = self._next_row()
            except StopIteration:
                exhausted = True
                break
            if y == wanted:
                return x, y
            self.buffers[y].append((x, y))
        # Deterministic fallback: fullest (allowed) buffer first — ties break
        # toward the lowest class index — then the raw source.
        candidates = (
            range(len(self.buffers)) if allowed is None else allowed
        )
        best, best_size = -1, 0
        for c in candidates:
            if len(self.buffers[c]) > best_size:
                best, best_size = c, len(self.buffers[c])
        if best_size:
            return self.buffers[best].pop()
        if exhausted:
            raise StopIteration(f"source '{self.stream.name}' exhausted")
        if allowed is None:
            return self._next_row()
        # Last resort for a masked segment: keep drawing until an allowed row
        # appears.  The budget floor is deliberately generous and independent
        # of the (tunable) per-request ``max_draws``: only a source that
        # cannot produce *any* allowed class should fail — loudly, rather
        # than silently violating the declared class-removal ground truth.
        budget = max(self.max_draws, 10_000)
        for _ in range(budget):
            try:
                x, y = self._next_row()
            except StopIteration as exc:
                raise StopIteration(
                    f"source '{self.stream.name}' exhausted"
                ) from exc
            if y in allowed:
                return x, y
            self.buffers[y].append((x, y))
        raise RuntimeError(
            f"source '{self.stream.name}' produced none of the active "
            f"classes {allowed} within {budget} draws"
        )
