"""Multi-class imbalance control for data streams.

The paper's three scenarios (Section IV) all involve a *dynamic imbalance
ratio* and, in Scenarios 2-3, *changing class roles* (minority classes become
majority and vice versa).  This module provides the
:class:`ImbalanceProfile` implementations that map a stream position ``t``
to a vector of class priors — static skew, oscillating skew, and role
switching.  :class:`~repro.streams.schedule.ScheduledStream` evaluates a
profile at every emitted position and re-samples its sources so the emitted
class frequencies follow it.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "ImbalanceProfile",
    "StaticImbalance",
    "DynamicImbalance",
    "RoleSwitchingImbalance",
    "geometric_priors",
    "geometric_priors_batch",
]


def geometric_priors(n_classes: int, imbalance_ratio: float) -> np.ndarray:
    """Class priors decaying geometrically so that ``max/min == imbalance_ratio``.

    Class 0 is the largest (majority) class and class ``n_classes - 1`` the
    smallest.  ``imbalance_ratio=1`` yields a balanced distribution.
    """
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if imbalance_ratio < 1.0:
        raise ValueError("imbalance_ratio must be >= 1")
    # np.power (not the scalar `**`) so the result is bit-identical to the
    # vectorized geometric_priors_batch, which uses the same ufunc loop.
    decay = np.power(imbalance_ratio, -1.0 / (n_classes - 1))
    priors = decay ** np.arange(n_classes, dtype=np.float64)
    return priors / priors.sum()


def geometric_priors_batch(n_classes: int, imbalance_ratios: np.ndarray) -> np.ndarray:
    """Vectorized :func:`geometric_priors`: one prior row per requested ratio.

    Element-wise identical to stacking ``geometric_priors(n_classes, r)`` for
    every ``r`` (same power and normalisation operations), so batch evaluation
    of position-dependent profiles stays bit-compatible with the scalar path.
    """
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    ratios = np.asarray(imbalance_ratios, dtype=np.float64)
    if np.any(ratios < 1.0):
        raise ValueError("imbalance_ratio must be >= 1")
    decay = ratios ** (-1.0 / (n_classes - 1))
    priors = decay[..., None] ** np.arange(n_classes, dtype=np.float64)
    return priors / priors.sum(axis=-1, keepdims=True)


class ImbalanceProfile(abc.ABC):
    """Maps a stream position to the target class-prior vector."""

    def __init__(self, n_classes: int) -> None:
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self._n_classes = n_classes

    @property
    def n_classes(self) -> int:
        return self._n_classes

    @abc.abstractmethod
    def priors(self, position: int) -> np.ndarray:
        """Return the class priors in effect at ``position`` (sums to 1)."""

    def priors_batch(self, positions: np.ndarray) -> np.ndarray:
        """Prior rows for many positions at once: shape ``(len(positions), k)``.

        Must be element-wise identical to stacking :meth:`priors` per
        position — the schedule engine relies on this to keep batch and
        per-instance generation bit-identical.  The default loops; the
        built-in profiles override it with vectorized implementations.
        """
        positions = np.asarray(positions)
        return np.stack([self.priors(int(t)) for t in positions]) if positions.size else np.empty((0, self._n_classes))

    def imbalance_ratio(self, position: int) -> float:
        """Ratio between the largest and the smallest class prior."""
        priors = self.priors(position)
        return float(priors.max() / priors.min())


class StaticImbalance(ImbalanceProfile):
    """A fixed skew: the imbalance ratio never changes."""

    def __init__(self, n_classes: int, imbalance_ratio: float) -> None:
        super().__init__(n_classes)
        self._priors = geometric_priors(n_classes, imbalance_ratio)

    def priors(self, position: int) -> np.ndarray:
        return self._priors.copy()

    def priors_batch(self, positions: np.ndarray) -> np.ndarray:
        return np.broadcast_to(
            self._priors, (np.asarray(positions).shape[0], self._n_classes)
        ).copy()


class DynamicImbalance(ImbalanceProfile):
    """An imbalance ratio that oscillates between two extremes over time.

    The instantaneous ratio follows a raised cosine between ``min_ratio`` and
    ``max_ratio`` with the given ``period``, so the skew both increases and
    decreases during stream processing — the behaviour the paper requires of
    its artificial benchmarks.
    """

    def __init__(
        self,
        n_classes: int,
        min_ratio: float,
        max_ratio: float,
        period: int,
        phase: float = 0.0,
    ) -> None:
        super().__init__(n_classes)
        if min_ratio < 1.0 or max_ratio < min_ratio:
            raise ValueError("require 1 <= min_ratio <= max_ratio")
        if period <= 0:
            raise ValueError("period must be positive")
        self._min_ratio = min_ratio
        self._max_ratio = max_ratio
        self._period = period
        self._phase = phase

    def current_ratio(self, position: int) -> float:
        angle = 2.0 * np.pi * position / self._period + self._phase
        blend = 0.5 * (1.0 - np.cos(angle))
        return self._min_ratio + blend * (self._max_ratio - self._min_ratio)

    def priors(self, position: int) -> np.ndarray:
        return geometric_priors(self.n_classes, self.current_ratio(position))

    def priors_batch(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions)
        if positions.size == 0:
            return np.empty((0, self.n_classes))
        # Same element-wise operations (and order) as the scalar path, so the
        # rows are bit-identical to per-position `priors` calls.
        angle = 2.0 * np.pi * positions / self._period + self._phase
        blend = 0.5 * (1.0 - np.cos(angle))
        ratios = self._min_ratio + blend * (self._max_ratio - self._min_ratio)
        return geometric_priors_batch(self.n_classes, ratios)


class RoleSwitchingImbalance(ImbalanceProfile):
    """Dynamic skew whose class roles rotate every ``switch_period`` instances.

    On top of an oscillating imbalance ratio, the assignment of priors to
    classes is cyclically rotated, so the class that used to be the largest
    becomes progressively smaller and minority classes take over the majority
    role (Scenario 2/3 in the paper's taxonomy).
    """

    def __init__(
        self,
        n_classes: int,
        min_ratio: float,
        max_ratio: float,
        period: int,
        switch_period: int,
    ) -> None:
        super().__init__(n_classes)
        if switch_period <= 0:
            raise ValueError("switch_period must be positive")
        self._dynamic = DynamicImbalance(n_classes, min_ratio, max_ratio, period)
        self._switch_period = switch_period

    def role_rotation(self, position: int) -> int:
        """Number of positions the prior vector is rotated at ``position``."""
        return (position // self._switch_period) % self.n_classes

    def priors(self, position: int) -> np.ndarray:
        base = self._dynamic.priors(position)
        return np.roll(base, self.role_rotation(position))

    def priors_batch(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions)
        base = self._dynamic.priors_batch(positions)
        if base.shape[0] == 0:
            return base
        rotations = (positions // self._switch_period) % self.n_classes
        # Row-wise np.roll via a gather: rolled[i, j] = base[i, (j - r_i) % k].
        columns = np.arange(self.n_classes)
        gather = (columns[None, :] - rotations[:, None]) % self.n_classes
        return np.take_along_axis(base, gather, axis=1)

