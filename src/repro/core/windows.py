"""Windowed-statistics structures shared by the detectors.

* :class:`RingWindow` — a fixed-capacity sliding window with an O(1)
  maintained sum (FHDDM's correctness window, WSTD's recent and old
  samples);
* :class:`ExponentialBuckets` — ADWIN's exponential histogram of buckets.

Both are :class:`~repro.core.snapshot.Snapshotable`, so a detector holding one
snapshots it with the rest of its state.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.snapshot import Snapshotable

__all__ = ["RingWindow", "ExponentialBuckets"]


# ------------------------------------------------------------------ RingWindow
class RingWindow(Snapshotable):
    """Fixed-capacity sliding window with an O(1) maintained sum.

    Backs the windowed detectors (FHDDM's correctness window, WSTD's
    recent/old samples).  The maintained sum is exact for integer-valued
    contents — which is all the detectors store (0/1 indicator bits) — so it
    always equals a fresh ``sum()`` over the contents bit-for-bit.
    """

    __slots__ = ("_capacity", "_buffer", "_start", "_size", "_sum")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._buffer = np.zeros(capacity, dtype=np.float64)
        self._start = 0
        self._size = 0
        self._sum = 0.0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def sum(self) -> float:
        """Sum of the current contents (exact for integer-valued contents)."""
        return self._sum

    def __len__(self) -> int:
        return self._size

    def oldest(self) -> float:
        """The element that would be evicted next.

        Raises :class:`ValueError` when the window is empty (or was just
        cleared) — the backing buffer slot holds stale or zero-initialised
        memory in that state, never a real element.
        """
        if self._size == 0:
            raise ValueError("oldest() on an empty RingWindow")
        return float(self._buffer[self._start])

    def append(self, value: float) -> float | None:
        """Push one value, returning the evicted element (or ``None``)."""
        evicted: float | None = None
        if self._size == self._capacity:
            evicted = float(self._buffer[self._start])
            self._sum -= evicted
            self._buffer[self._start] = value
            self._start = (self._start + 1) % self._capacity
        else:
            self._buffer[(self._start + self._size) % self._capacity] = value
            self._size += 1
        self._sum += value
        return evicted

    def clear(self) -> None:
        self._start = 0
        self._size = 0
        self._sum = 0.0


# ---------------------------------------------------------- ExponentialBuckets
_MAX_BUCKETS_PER_ROW = 5


class ExponentialBuckets(Snapshotable):
    """ADWIN's exponential histogram: rows of buckets of ``2**level`` elements.

    Compression keeps at most ``max_per_row`` buckets per row; overflowing
    buckets are pairwise-merged into the next row with the exact variance
    merge formula of Bifet & Gavalda.  The structure only stores buckets —
    the aggregate window statistics (width/total/variance) stay with the
    caller, which mirrors the original ADWIN bookkeeping and keeps the
    arithmetic identical.
    """

    __slots__ = ("_max_per_row", "_totals", "_variances")

    def __init__(self, max_per_row: int = _MAX_BUCKETS_PER_ROW) -> None:
        self._max_per_row = max_per_row
        # One list per level; index 0 holds single elements.
        self._totals: list[list[float]] = [[]]
        self._variances: list[list[float]] = [[]]

    @property
    def n_levels(self) -> int:
        return len(self._totals)

    def clear(self) -> None:
        self._totals = [[]]
        self._variances = [[]]

    def append(self, value: float) -> None:
        """Insert one element and run the compression cascade."""
        self._totals[0].append(value)
        self._variances[0].append(0.0)
        level = 0
        while level < len(self._totals):
            row = self._totals[level]
            if len(row) <= self._max_per_row:
                break
            if level + 1 == len(self._totals):
                self._totals.append([])
                self._variances.append([])
            total_1 = row.pop(0)
            total_2 = row.pop(0)
            variance_1 = self._variances[level].pop(0)
            variance_2 = self._variances[level].pop(0)
            n = float(2**level)
            mean_1, mean_2 = total_1 / n, total_2 / n
            merged_variance = (
                variance_1
                + variance_2
                + n * n / (2.0 * n) * (mean_1 - mean_2) * (mean_1 - mean_2)
            )
            self._totals[level + 1].append(total_1 + total_2)
            self._variances[level + 1].append(merged_variance)
            level += 1

    def oldest_first(self) -> Iterator[tuple[float, float, float]]:
        """Yield ``(size, total, variance)`` from the oldest bucket onwards."""
        for level in range(len(self._totals) - 1, -1, -1):
            size = float(2**level)
            for total, variance in zip(self._totals[level], self._variances[level]):
                yield size, total, variance

    def pop_oldest(self) -> tuple[float, float, float] | None:
        """Drop and return the oldest bucket as ``(size, total, variance)``."""
        level = len(self._totals) - 1
        while level >= 0 and not self._totals[level]:
            level -= 1
        if level < 0:
            return None
        size = float(2**level)
        total = self._totals[level].pop(0)
        variance = self._variances[level].pop(0)
        return size, total, variance
