"""Unit tests for the detectors' window structures (repro.core.windows)."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core.windows import ExponentialBuckets, RingWindow


def contents(window: RingWindow) -> list[float]:
    """The window's elements, oldest first, read from its ring buffer."""
    return [
        float(window._buffer[(window._start + i) % window.capacity])
        for i in range(len(window))
    ]


class TestRingWindow:
    def test_rolling_sum_matches_fresh_sum(self):
        rng = np.random.default_rng(1)
        window = RingWindow(7)
        for bit in (rng.random(100) < 0.4).astype(float):
            window.append(float(bit))
            assert window.sum == sum(contents(window))
            assert len(window) <= 7

    def test_oldest_and_eviction_order(self):
        window = RingWindow(3)
        for v in (1.0, 2.0, 3.0):
            window.append(v)
        assert window.oldest() == 1.0
        evicted = window.append(4.0)
        assert evicted == 1.0
        assert contents(window) == [2.0, 3.0, 4.0]

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
        """Appends and clears at any ring offset track a deque."""
        rng = np.random.default_rng(4)
        window = RingWindow(5)
        reference: deque[float] = deque(maxlen=5)
        for _ in range(400):
            if rng.random() < 0.05:
                window.clear()
                reference.clear()
            else:
                value = float(rng.integers(0, 2))
                full = len(reference) == reference.maxlen
                expected_evicted = reference[0] if full else None
                assert window.append(value) == expected_evicted
                reference.append(value)
            assert contents(window) == list(reference)
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
        sizes, totals, _variances = zip(*buckets.oldest_first())
        assert sum(sizes) == 200
        assert sum(totals) == pytest.approx(values.sum())
        # Bounded memory: at most max_per_row + 1 buckets per level.
        assert len(sizes) <= 6 * buckets.n_levels

    def test_pop_oldest_returns_largest_level_first(self):
        buckets = ExponentialBuckets()
        for v in range(40):
            buckets.append(float(v))
        size, _total, _variance = buckets.pop_oldest()
        sizes = [bucket_size for bucket_size, _, _ in buckets.oldest_first()]
        assert size == 2 ** (buckets.n_levels - 1)
        assert size >= max(sizes)

    def test_pop_oldest_empty(self):
        assert ExponentialBuckets().pop_oldest() is None
