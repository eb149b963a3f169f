"""Lock-step replay of Welford chains: the sequential core of the
classifiers' chunk-exact kernels.

A Welford chain absorbs its rows one at a time, exactly as the scalar
``partial_fit`` methods (and ``_LeafStats.update``) do::

    count += 1.0
    delta = x - mean
    mean += delta / count
    m2 += delta * (x - mean)

Naive Bayes keeps one chain per class, a perceptron one for its running
standardisation, and a tree leaf one per class for its split statistics.
Only the mean is a true recurrence.  :func:`replay_welford` steps every chain
of a chunk in lock-step, one iteration per row of the *longest* chain with
three in-place ufuncs on ``(n_chains, n_features)`` arrays, and takes the
counts and ``m2`` from ``np.add.accumulate``: a sequential left fold, so it
performs the loop's additions in the loop's order.  Elementwise ufuncs give
the same bits whatever the array shape, so every state equals the scalar
update's bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.hotpath import hot_path

__all__ = ["WelfordReplay", "chain_ranks", "flat_states", "replay_welford"]


def chain_ranks(chains: np.ndarray, n_chains: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rank, sizes)``: ``rank[i]`` counts the rows of row ``i``'s chain
    before it, ``sizes[g]`` the rows of chain ``g``."""
    sizes = np.bincount(chains, minlength=n_chains)
    order = np.argsort(chains, kind="stable")
    starts = np.cumsum(sizes) - sizes
    rank = np.empty(chains.shape[0], dtype=np.intp)
    rank[order] = np.arange(chains.shape[0]) - np.repeat(starts, sizes)
    return rank, sizes


def flat_states(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(k, g, first)`` indexing every real state of chains of ``sizes``
    rows, chain after chain: flat state ``j`` is entry ``[k[j], g[j]]`` of
    a history, and state ``k`` of chain ``g`` is flat state ``first[g] + k``.

    Per-state terms computed on the flat states skip the padding, which on a
    skewed chunk is most of a padded history.
    """
    n_states = sizes + 1
    first = np.cumsum(n_states) - n_states
    g = np.repeat(np.arange(sizes.shape[0]), n_states)
    return np.arange(g.shape[0]) - first[g], g, first


class WelfordReplay(NamedTuple):
    """Every state the chains pass through.

    Entry ``[k, g]`` of a history is chain ``g`` after ``k`` of its rows;
    entries past ``sizes[g]`` are padding and hold no chain's state.  Row
    ``i`` is row ``rank[i]`` of its chain, so its update took the chain
    from state ``rank[i]`` to ``rank[i] + 1``.
    """

    rank: np.ndarray  # (n,)
    sizes: np.ndarray  # (n_chains,)
    count: np.ndarray  # (K + 1, n_chains)
    mean: np.ndarray  # (K + 1, n_chains, n_features)
    m2: np.ndarray  # (K + 1, n_chains, n_features)

    def final(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(count, mean, m2)`` of every chain after all its rows."""
        chains = np.arange(self.sizes.shape[0])
        return (
            self.count[self.sizes, chains],
            self.mean[self.sizes, chains],
            self.m2[self.sizes, chains],
        )


@hot_path
def _advance_means(
    padded: np.ndarray,
    mean: np.ndarray,
    divisor: np.ndarray,
    delta: np.ndarray,
) -> None:
    """The mean recurrence, all chains at once: one iteration per row."""
    for x, before, after, count in zip(padded, mean[:-1], mean[1:], divisor):
        np.subtract(x, before, out=delta)
        np.divide(delta, count, out=delta)
        np.add(before, delta, out=after)


def replay_welford(
    count: np.ndarray,
    mean: np.ndarray,
    m2: np.ndarray,
    rows: np.ndarray,
    chains: np.ndarray,
    n_chains: int,
) -> WelfordReplay:
    """Replay ``rows`` (``(n, F)``) into the chains that ``chains``
    (``(n,)``) names, from the initial states ``count`` (``(n_chains,)``),
    ``mean`` and ``m2`` (``(n_chains, F)``).  Every row weighs 1.0; the
    inputs are not modified."""
    rank, sizes = chain_ranks(chains, n_chains)
    longest = int(sizes.max())
    n_features = rows.shape[1]
    padded = np.zeros((longest, n_chains, n_features))
    padded[rank, chains] = rows

    counts = np.ones((longest + 1, n_chains))
    counts[0] = count
    np.add.accumulate(counts, axis=0, out=counts)

    means = np.empty((longest + 1, n_chains, n_features))
    means[0] = mean
    m2s = np.empty((longest + 1, n_chains, n_features))
    # The loop divides by a full-shape count (a broadcast (n_chains, 1)
    # column costs about three times as much per call), staged in the m2
    # history, which is free until the loop ends.
    m2s[1:] = counts[1:, :, None]
    _advance_means(padded, means, m2s[1:], np.empty((n_chains, n_features)))

    # delta * (x - mean): the loop's delta, recomputed with the same
    # subtraction, times the row centred on the updated mean.
    np.subtract(padded, means[:-1], out=m2s[1:])
    np.subtract(padded, means[1:], out=padded)
    np.multiply(m2s[1:], padded, out=m2s[1:])
    m2s[0] = m2
    np.add.accumulate(m2s, axis=0, out=m2s)
    return WelfordReplay(rank, sizes, counts, means, m2s)
