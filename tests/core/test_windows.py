"""Unit tests for the shared windowed-statistics core (repro.core.windows).

The detector kernels lean on two properties of these primitives: they must
reproduce the scalar recurrences bit-for-bit (prior-seeded fold order,
last-wins tie semantics), and the vectorized Hoeffding bound must agree
exactly with the ``math``-based scalar twin used on the per-instance hot
paths (HDDM-A seeds its trackers with one and fills them with the other).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from repro.core.windows import (
    ExponentialBuckets,
    RingWindow,
    consecutive_true_runs,
    exclusive_totals,
    gather_tracked,
    hoeffding_bound,
    running_totals,
    strict_prefix_max_exclusive,
    tracked_weak_max,
    tracked_weak_min,
)
from repro.detectors.hddm import _hoeffding_bound


class TestBounds:
    @pytest.mark.parametrize("confidence", [0.001, 0.005, 0.05, 0.5])
    def test_hoeffding_matches_scalar_twin_bitwise(self, confidence):
        ns = np.arange(1.0, 500.0)
        vectorized = hoeffding_bound(ns, confidence)
        scalar = np.array([_hoeffding_bound(n, confidence) for n in ns])
        # Exact equality: the batch kernels seed trackers with one and fill
        # them with the other, so any rounding gap breaks chunk-exactness.
        assert np.array_equal(vectorized, scalar)

    def test_hoeffding_guards_empty_samples(self):
        # n <= 0 has no concentration bound; the guard must return inf
        # (scalar and array) instead of tripping a divide-by-zero warning.
        with np.errstate(divide="raise", invalid="raise"):
            assert math.isinf(float(hoeffding_bound(0, 0.05)))
            assert math.isinf(float(hoeffding_bound(-3.0, 0.05)))
            out = hoeffding_bound(np.array([0.0, -1.0, 4.0]), 0.05)
        assert np.isinf(out[:2]).all()
        assert out[2] == _hoeffding_bound(4.0, 0.05)


class TestRunningTotals:
    def test_matches_seeded_scalar_fold_bitwise(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.0, 1.0, 257)
        prior = float(rng.normal())
        acc, expected = prior, []
        for v in values:
            acc += v
            expected.append(acc)
        assert np.array_equal(running_totals(values, prior), expected)
        assert np.array_equal(
            exclusive_totals(values, prior), [prior] + expected[:-1]
        )

    def test_empty(self):
        assert running_totals(np.empty(0), 3.0).shape == (0,)
        assert exclusive_totals(np.empty(0), 3.0).shape == (0,)


class TestTrackers:
    def test_weak_min_last_wins_on_ties(self):
        scores = np.array([3.0, 5.0, 3.0, 4.0, 2.0, 2.0])
        tracked = tracked_weak_min(scores, math.inf)
        assert tracked.tolist() == [0, 0, 2, 2, 4, 5]

    def test_prior_reference_sticks_until_beaten(self):
        scores = np.array([4.0, 3.0, 3.5])
        tracked = tracked_weak_min(scores, 3.0)
        assert tracked.tolist() == [-1, 1, 1]
        assert gather_tracked(tracked, scores, 99.0).tolist() == [99.0, 3.0, 3.0]

    def test_weak_max_mirrors_weak_min(self):
        scores = np.array([1.0, 4.0, 4.0, 2.0])
        assert tracked_weak_max(scores, -math.inf).tolist() == [0, 1, 2, 2]
        assert tracked_weak_max(scores, 5.0).tolist() == [-1, -1, -1, -1]

    def test_strict_prefix_max_exclusive(self):
        scores = np.array([2.0, 5.0, 4.0])
        assert strict_prefix_max_exclusive(scores, 3.0).tolist() == [3.0, 3.0, 5.0]

    def test_consecutive_true_runs_with_carry(self):
        mask = np.array([True, True, False, True])
        assert consecutive_true_runs(mask, prior_run=2).tolist() == [3, 4, 0, 1]
        assert consecutive_true_runs(mask).tolist() == [1, 2, 0, 1]


class TestRingWindow:
    def test_rolling_sum_matches_fresh_sum(self):
        rng = np.random.default_rng(1)
        window = RingWindow(7)
        for bit in (rng.random(100) < 0.4).astype(float):
            window.append(float(bit))
            assert window.sum == window.values().sum()
            assert len(window) <= 7

    def test_oldest_and_eviction_order(self):
        window = RingWindow(3)
        for v in (1.0, 2.0, 3.0):
            window.append(v)
        assert window.oldest() == 1.0
        evicted = window.append(4.0)
        assert evicted == 1.0
        assert window.values().tolist() == [2.0, 3.0, 4.0]

    def test_assign_keeps_tail(self):
        window = RingWindow(3)
        window.assign(np.array([1.0, 0.0, 1.0, 1.0]))
        assert window.values().tolist() == [0.0, 1.0, 1.0]
        assert window.sum == 2.0

    def test_empty_guards(self):
        window = RingWindow(2)
        with pytest.raises(ValueError, match="empty RingWindow"):
            window.oldest()
        window.append(1.0)
        window.clear()
        assert len(window) == 0 and window.sum == 0.0
        # Cleared windows guard exactly like fresh ones.
        with pytest.raises(ValueError, match="empty RingWindow"):
            window.oldest()

    def test_matches_deque_reference(self):
        """Appends, clears and assigns at any ring offset track a deque."""
        rng = np.random.default_rng(4)
        window = RingWindow(5)
        reference: deque[float] = deque(maxlen=5)
        for _ in range(400):
            action = rng.random()
            if action < 0.05:
                window.clear()
                reference.clear()
            elif action < 0.1:
                values = rng.integers(0, 2, int(rng.integers(0, 9))).astype(float)
                window.assign(values)
                reference.clear()
                reference.extend(values.tolist())
            else:
                value = float(rng.integers(0, 2))
                full = len(reference) == reference.maxlen
                expected_evicted = reference[0] if full else None
                assert window.append(value) == expected_evicted
                reference.append(value)
            assert window.values().tolist() == list(reference)
            assert window.sum == sum(reference)
            assert len(window) == len(reference)
            if reference:
                assert window.oldest() == reference[0]

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            RingWindow(0)


class TestExponentialBuckets:
    def test_compression_preserves_totals(self):
        buckets = ExponentialBuckets()
        values = np.random.default_rng(2).random(200)
        for v in values:
            buckets.append(float(v))
        sizes, totals = buckets.arrays_oldest_first()
        assert sizes.sum() == 200
        assert totals.sum() == pytest.approx(values.sum())
        # Bounded memory: at most max_per_row + 1 buckets per level.
        assert sizes.shape[0] <= 6 * buckets.n_levels

    def test_pop_oldest_returns_largest_level_first(self):
        buckets = ExponentialBuckets()
        for v in range(40):
            buckets.append(float(v))
        size, _total, _variance = buckets.pop_oldest()
        sizes, _ = buckets.arrays_oldest_first()
        assert size == 2 ** (buckets.n_levels - 1)
        assert size >= sizes.max()

    def test_pop_oldest_empty(self):
        assert ExponentialBuckets().pop_oldest() is None
