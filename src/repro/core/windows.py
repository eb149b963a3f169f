"""Shared windowed-statistics core for the vectorized detector kernels.

Every drift detector in the zoo reduces to a handful of primitives over the
monitored stream: running sums and means, reference ("best so far") statistics
tracked with weak prefix minima/maxima, fixed-size sliding windows with
rolling sums, the Hoeffding bound, consecutive-state run lengths, and — for
ADWIN — an exponential histogram of buckets.  This module provides those
primitives once, in a form usable both by the scalar ``step`` paths and by
the NumPy-native ``_kernel_segment`` kernels that
:meth:`~repro.detectors.base.DriftDetector.step_batch` drives.

Bit-exactness contract
----------------------
The batch kernels must return *exactly* the detection positions the
per-instance loop would (chunk-exact semantics), so every helper here is
written to reproduce the scalar recurrences bit-for-bit under the conditions
the detectors actually use them in:

* ``np.add.accumulate`` / ``np.minimum.accumulate`` apply their operation as
  a strict left-to-right fold, matching a scalar ``acc += x`` loop;
* the detectors monitor 0/1 error indicators (and integer error distances),
  so running sums and window sums are exact integers in float64 and every
  re-association of the additions is value-preserving;
* derived quantities (means, bounds, test statistics) are computed with the
  same expression shapes as the scalar code so each operation rounds
  identically.

Helpers that rely on integer-valued contents (``RingWindow`` rolling sums,
the exclusive totals) document it explicitly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.snapshot import Snapshotable

__all__ = [
    "hoeffding_bound",
    "running_totals",
    "exclusive_totals",
    "tracked_weak_min",
    "tracked_weak_max",
    "strict_prefix_max_exclusive",
    "consecutive_true_runs",
    "gather_tracked",
    "RingWindow",
    "ExponentialBuckets",
]


# --------------------------------------------------------------------- bounds
def hoeffding_bound(n, confidence: float):
    """Hoeffding epsilon ``sqrt(ln(1/confidence) / (2 n))``.

    ``n`` may be a scalar or an array; the expression shape matches the
    scalar helpers used by DDM-family and HDDM detectors so scalar and batch
    paths round identically.  Returns ``inf`` where ``n <= 0`` (no samples in
    the reference window yet — the bound is vacuous); without the guard the
    division emits a RuntimeWarning and ``n < 0`` even yields ``nan``.
    """
    n = np.asarray(n, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(np.log(1.0 / confidence) / (2.0 * n))
    return np.where(n <= 0.0, np.inf, out)


# ----------------------------------------------------------- running statistics
def running_totals(values: np.ndarray, prior: float = 0.0) -> np.ndarray:
    """Totals *after* each element: ``prior + v0, (prior + v0) + v1, ...``.

    The prior state seeds the accumulation, so the additions happen in
    exactly the order a scalar ``acc += v`` loop performs them
    (``np.add.accumulate`` is a strict left-to-right fold) and the partial
    sums are bit-identical for arbitrary real-valued inputs.
    """
    values = np.asarray(values, dtype=np.float64)
    seeded = np.empty(values.shape[0] + 1, dtype=np.float64)
    seeded[0] = prior
    seeded[1:] = values
    return np.add.accumulate(seeded)[1:]


def exclusive_totals(values: np.ndarray, prior: float = 0.0) -> np.ndarray:
    """Totals *before* each element: ``prior, prior + v0, ...``.

    Bit-identical to the scalar fold for arbitrary inputs (see
    :func:`running_totals`).
    """
    values = np.asarray(values, dtype=np.float64)
    seeded = np.empty(values.shape[0], dtype=np.float64)
    if seeded.shape[0]:
        seeded[0] = prior
        seeded[1:] = values[:-1]
        np.add.accumulate(seeded, out=seeded)
    return seeded


def tracked_weak_min(scores: np.ndarray, prior: float) -> np.ndarray:
    """Index of the reference element a weak prefix-min tracker holds.

    Models the classic "best statistic so far" update ``if s_t <= s_min:
    remember element t`` (non-strict, so ties re-update and the *latest*
    minimising element wins).  Returns, for every position ``t``, the index of
    the element the tracker references after processing ``t``; ``-1`` means
    the prior reference (``prior``) is still in place.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    prefix_min = np.minimum.accumulate(scores)
    min_excl = np.empty(n, dtype=np.float64)
    min_excl[0] = prior
    np.minimum(prefix_min[:-1], prior, out=min_excl[1:])
    updates = scores <= min_excl
    indices = np.where(updates, np.arange(n, dtype=np.int64), -1)
    return np.maximum.accumulate(indices)


def tracked_weak_max(scores: np.ndarray, prior: float) -> np.ndarray:
    """Mirror of :func:`tracked_weak_min` for ``if s_t >= s_max`` trackers."""
    return tracked_weak_min(-np.asarray(scores, dtype=np.float64), -prior)


def strict_prefix_max_exclusive(scores: np.ndarray, prior: float) -> np.ndarray:
    """Running maximum *before* each element, seeded with ``prior``.

    Supports the strict "``if s_t > s_max`` update, else test against
    ``s_max``" pattern (EDDM): the value tested at ``t`` is the maximum over
    the prior state and all elements before ``t``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    out = np.empty(n, dtype=np.float64)
    if n:
        out[0] = prior
        np.maximum.accumulate(scores[:-1], out=out[1:])
        np.maximum(out[1:], prior, out=out[1:])
    return out


def consecutive_true_runs(mask: np.ndarray, prior_run: int = 0) -> np.ndarray:
    """Length of the True-run ending at each position, carrying a prior run.

    ``mask=[T,T,F,T]`` with ``prior_run=2`` yields ``[3,4,0,1]`` — the value a
    scalar ``count = count + 1 if flag else 0`` counter would hold after each
    element.  Used for RDDM's consecutive-warning limit.
    """
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[0]
    indices = np.arange(n, dtype=np.int64)
    last_false = np.maximum.accumulate(np.where(~mask, indices, -1))
    runs = np.where(
        last_false >= 0, indices - last_false, indices + 1 + int(prior_run)
    )
    return np.where(mask, runs, 0)


def gather_tracked(
    tracked: np.ndarray, values: np.ndarray, prior: float
) -> np.ndarray:
    """Gather ``values[tracked]`` with ``tracked == -1`` mapping to ``prior``."""
    safe = np.maximum(tracked, 0)
    out = np.asarray(values, dtype=np.float64)[safe]
    return np.where(tracked >= 0, out, prior)


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

    def values(self) -> np.ndarray:
        """Contents in chronological order (oldest first), as a copy."""
        idx = (self._start + np.arange(self._size)) % self._capacity
        return self._buffer[idx]

    def assign(self, values: np.ndarray) -> None:
        """Replace the contents with (the tail of) ``values``, oldest first."""
        values = np.asarray(values, dtype=np.float64)[-self._capacity :]
        self._size = values.shape[0]
        self._start = 0
        self._buffer[: self._size] = values
        self._sum = float(values.sum())

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

    def arrays_oldest_first(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sizes, totals)`` arrays oldest-first, for vectorized cut scans."""
        sizes: list[float] = []
        totals: list[float] = []
        for level in range(len(self._totals) - 1, -1, -1):
            row = self._totals[level]
            if row:
                sizes.extend([float(2**level)] * len(row))
                totals.extend(row)
        return (
            np.asarray(sizes, dtype=np.float64),
            np.asarray(totals, dtype=np.float64),
        )

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
