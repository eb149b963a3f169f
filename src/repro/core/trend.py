"""Sliding-window trend of the reconstruction error (Eqs. 28-37).

The evolution of each class's reconstruction error over arriving mini-batches
is summarised by the slope of a simple linear regression computed over a
sliding window.  The paper maintains the regression terms incrementally
(Eqs. 29-36) and sizes the window adaptively with ADWIN instead of a manual
constant (Eq. 37 handles the ``t > W`` case).  :class:`TrendTracker`
implements exactly this bookkeeping for a single monitored series; RBM-IM
instantiates one tracker per class.

The monitored values live in a flat ``float64`` buffer (compacted in blocks)
so every slope is computed on a contiguous slice — no per-update
deque-to-array conversion on the detector's hot path.
"""

from __future__ import annotations

import numpy as np

from repro.core.snapshot import Snapshotable
from repro.detectors.adwin import ADWIN

__all__ = ["TrendTracker"]


class TrendTracker(Snapshotable):
    """Incremental sliding-window linear-regression slope with adaptive width.

    Parameters
    ----------
    adwin_delta:
        Confidence parameter of the internal ADWIN instance that adapts the
        window length to the monitored signal.
    max_window:
        Hard cap on the window length (keeps memory bounded even when ADWIN
        grows its window on long stable streams).
    min_window:
        Smallest window used for slope estimation.
    """

    #: v3: the state leaves out the constant ``_moment_rows``, rebuilt from
    #: ``max_window`` on restore, so older checkpoints are ignored.
    SNAPSHOT_VERSION = 3

    _SNAPSHOT_EXCLUDE = frozenset({"_moment_rows"})

    def __init__(
        self,
        adwin_delta: float = 0.002,
        max_window: int = 200,
        min_window: int = 4,
    ) -> None:
        if min_window < 2:
            raise ValueError("min_window must be >= 2")
        if max_window < min_window:
            raise ValueError("max_window must be >= min_window")
        self._adwin = ADWIN(delta=adwin_delta)
        self._max_window = max_window
        self._min_window = min_window
        # Values only: update times are consecutive integers by construction,
        # so the regression is computed on 0..n-1 offsets (the slope is
        # shift-invariant, and small offsets avoid the cancellation that raw
        # timestamps cause in n*sum(t^2) - sum(t)^2).  The buffer holds twice
        # the window so appends are O(1) between rare block compactions; it
        # starts zeroed, and reset zeroes it again, so its unwritten tail
        # snapshots the same every run and after a reset.
        self._values = np.zeros(2 * max_window, dtype=np.float64)
        self._cursor = 0
        self._time = 0
        self._trend_history: list[float] = []
        self._after_restore()

    def _after_restore(self) -> None:
        # Row 0 of ones and row 1 of 0..W-1: one gemv against the window
        # yields (sum_r, sum_tr) together instead of two separate reductions.
        window = self._max_window
        self._moment_rows = np.vstack(
            (np.ones(window), np.arange(window, dtype=np.float64))
        )

    # --------------------------------------------------------------- state
    @property
    def n_updates(self) -> int:
        return self._time

    @property
    def trend_history(self) -> list[float]:
        """Trend (slope) values produced so far, most recent last."""
        return self._trend_history[-self._max_window :]

    def trend_tail(self, k: int) -> list[float]:
        """The most recent ``min(k, available)`` trend values (cheap slice)."""
        return self._trend_history[-k:]

    @property
    def n_trends(self) -> int:
        """Number of retained trend values (bounded by ``max_window``)."""
        return min(len(self._trend_history), self._max_window)

    @property
    def value_history(self) -> list[float]:
        """Monitored values currently inside the (max) window."""
        start = max(0, self._cursor - self._max_window)
        return self._values[start : self._cursor].tolist()

    def reset(self) -> None:
        self._adwin.reset()
        self._values.fill(0.0)
        self._cursor = 0
        self._trend_history.clear()
        self._time = 0

    # -------------------------------------------------------------- update
    def update(self, value: float) -> float:
        """Consume one monitored value and return the current trend slope.

        Implements Eq. 28 with the incremental sums of Eqs. 29-36 evaluated
        over the adaptive window: the slope of the least-squares line fitted
        to ``(t, value)`` pairs inside the window.  Returns 0.0 until at least
        ``min_window`` values have been observed.
        """
        self._time += 1
        self._adwin.add_element(value)
        cursor = self._cursor
        if cursor == self._values.shape[0]:
            # Block compaction: keep the last max_window values at the front.
            keep = self._max_window
            self._values[:keep] = self._values[cursor - keep : cursor]
            cursor = keep
        self._values[cursor] = value
        cursor += 1
        self._cursor = cursor

        # The adaptive window W is ADWIN's width clamped to
        # [min_window, max_window].  The slope is the least-squares ``Qr`` of
        # Eq. 28 over the window; the abscissa is the 0-based offset inside
        # it, whose moment sums have closed forms.
        width = self._adwin._width
        if width < self._min_window:
            width = self._min_window
        elif width > self._max_window:
            width = self._max_window
        n = width if width < cursor else cursor
        if n < 2:
            slope = 0.0
        else:
            values = self._values[cursor - n : cursor]
            sum_t = n * (n - 1) // 2
            sum_t2 = (n - 1) * n * (2 * n - 1) // 6
            moments = self._moment_rows[:, :n] @ values
            sum_r = float(moments[0])
            sum_tr = float(moments[1])
            denominator = n * sum_t2 - sum_t * sum_t
            slope = (n * sum_tr - sum_t * sum_r) / denominator
        history = self._trend_history
        history.append(slope)
        if len(history) >= 4 * self._max_window:
            del history[: -self._max_window]
        return slope
