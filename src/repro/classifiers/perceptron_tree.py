"""Adaptive Cost-Sensitive Perceptron Trees (Krawczyk & Skryjomski, 2017).

The paper's base classifier: an incrementally grown decision tree whose leaves
hold cost-sensitive online perceptrons.  The tree grows by splitting a leaf
once it has accumulated enough instances and a feature offers sufficient
separation between classes (a streaming Gaussian separability criterion that
plays the role of the Hoeffding-bound gain test in the original paper).  Each
leaf perceptron uses cost-sensitive updates weighted by inverse class
frequency, making the whole model skew-insensitive.  The classifier is
intentionally dependent on an external drift detector for adaptation: the
prequential harness calls :meth:`reset` (or the detector-driven
:class:`~repro.evaluation.prequential.PrequentialRunner` rebuilds it) when a
drift is signalled, exactly as in the paper's experimental protocol.

Chunk-exact evaluation runs the tree's ``predict_fit_interleaved`` kernel.
It cuts the chunk at the rows where a split is attempted and routes each
segment at once.  Per segment it computes every value that does not depend
on the previous row vectorised (the leaf perceptrons' standardisation chains
and step sizes, and the leaves' split statistics, through one lock-step
Welford replay) and loops per row only over the leaf perceptrons' weight
recurrence.  It is bit-identical to ``predict_proba`` followed by
``partial_fit`` per row, which stay the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.classifiers.base import StreamClassifier
from repro.classifiers.perceptron import (
    OnlinePerceptron,
    predict_fit_perceptrons,
    standardisation_chains,
)
from repro.classifiers.welford import replay_welford
from repro.core.snapshot import register_dataclass

__all__ = ["CostSensitivePerceptronTree"]


@register_dataclass
@dataclass
class _LeafStats:
    """Streaming per-class feature statistics used by the split criterion."""

    counts: np.ndarray
    means: np.ndarray
    m2: np.ndarray

    @classmethod
    def create(cls, n_classes: int, n_features: int) -> "_LeafStats":
        return cls(
            counts=np.zeros(n_classes, dtype=np.float64),
            means=np.zeros((n_classes, n_features)),
            m2=np.zeros((n_classes, n_features)),
        )

    def update(self, x: np.ndarray, y: int) -> None:
        self.counts[y] += 1.0
        delta = x - self.means[y]
        self.means[y] += delta / self.counts[y]
        self.m2[y] += delta * (x - self.means[y])

    def total(self) -> float:
        return float(self.counts.sum())


@register_dataclass
@dataclass
class _TreeNode:
    """A node of the perceptron tree: leaf (model) or internal (split)."""

    depth: int
    model: OnlinePerceptron | None = None
    stats: _LeafStats | None = None
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    metadata: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.model is not None


class CostSensitivePerceptronTree(StreamClassifier):
    """Incremental decision tree with cost-sensitive perceptron leaves.

    Parameters
    ----------
    grace_period:
        Number of instances a leaf must see before a split is attempted.
    split_threshold:
        Minimum separability score (between-class over within-class spread of
        the best feature) required to split a leaf.
    max_depth:
        Maximum tree depth; leaves at this depth never split.
    leaf_learning_rate:
        Learning rate of the leaf perceptrons.
    cost_sensitive:
        Propagated to the leaf perceptrons (inverse-frequency update weights).
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        grace_period: int = 200,
        split_threshold: float = 1.0,
        max_depth: int = 4,
        leaf_learning_rate: float = 0.1,
        cost_sensitive: bool = True,
        seed: int | None = None,
    ) -> None:
        super().__init__(n_features, n_classes)
        if grace_period < 10:
            raise ValueError("grace_period must be >= 10")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self._grace_period = grace_period
        self._split_threshold = split_threshold
        self._max_depth = max_depth
        self._leaf_learning_rate = leaf_learning_rate
        self._cost_sensitive = cost_sensitive
        self._seed = seed
        self._init_state()

    def _init_state(self) -> None:
        self._root = self._make_leaf(depth=0)
        self._n_splits = 0

    def reset(self) -> None:
        self._init_state()

    # ---------------------------------------------------------------- state
    @property
    def n_splits(self) -> int:
        """Number of leaf splits performed since the last reset."""
        return self._n_splits

    @property
    def n_leaves(self) -> int:
        def count(node: _TreeNode) -> int:
            if node.is_leaf:
                return 1
            assert node.left is not None and node.right is not None
            return count(node.left) + count(node.right)

        return count(self._root)

    def _make_leaf(self, depth: int) -> _TreeNode:
        model = OnlinePerceptron(
            self._n_features,
            self._n_classes,
            learning_rate=self._leaf_learning_rate,
            cost_sensitive=self._cost_sensitive,
            seed=self._seed,
        )
        return _TreeNode(
            depth=depth,
            model=model,
            stats=_LeafStats.create(self._n_classes, self._n_features),
        )

    # -------------------------------------------------------------- routing
    def _route(self, x: np.ndarray) -> _TreeNode:
        node = self._root
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    # ------------------------------------------------------------- learning
    def partial_fit(self, x: np.ndarray, y: int, weight: float = 1.0) -> None:
        x = np.asarray(x, dtype=np.float64)
        y = int(y)
        leaf = self._route(x)
        assert leaf.model is not None and leaf.stats is not None
        leaf.model.partial_fit(x, y, weight=weight)
        leaf.stats.update(x, y)
        if (
            leaf.depth < self._max_depth
            and leaf.stats.total() >= self._grace_period
            and leaf.stats.total() % self._grace_period == 0
        ):
            self._attempt_split(leaf)

    def _separability(self, stats: _LeafStats) -> tuple[int, float, float]:
        """Best feature, its threshold, and its separability score.

        The score for a feature is the spread of the class-conditional means
        divided by the average within-class standard deviation — a streaming
        analogue of a one-dimensional Fisher criterion.
        """
        observed = stats.counts > 1.0
        if observed.sum() < 2:
            return -1, 0.0, 0.0
        means = stats.means[observed]
        variances = stats.m2[observed] / stats.counts[observed, None]
        between = means.max(axis=0) - means.min(axis=0)
        within = np.sqrt(np.maximum(variances, 1e-12)).mean(axis=0)
        scores = between / np.maximum(within, 1e-9)
        feature = int(np.argmax(scores))
        counts = stats.counts[observed]
        threshold = float(np.average(means[:, feature], weights=counts))
        return feature, threshold, float(scores[feature])

    def _attempt_split(self, leaf: _TreeNode) -> None:
        assert leaf.stats is not None
        feature, threshold, score = self._separability(leaf.stats)
        if feature < 0 or score < self._split_threshold:
            return
        left = self._make_leaf(leaf.depth + 1)
        right = self._make_leaf(leaf.depth + 1)
        # Children inherit the parent's perceptron weights so no knowledge is
        # lost at the split (the "adaptive" part of the original algorithm).
        assert leaf.model is not None
        for child in (left, right):
            assert child.model is not None
            child.model._weights = leaf.model._weights.copy()
            child.model._bias = leaf.model._bias.copy()
            child.model._mean = leaf.model._mean.copy()
            child.model._m2 = leaf.model._m2.copy()
            child.model._count = leaf.model._count
            child.model._class_counts = leaf.model._class_counts.copy()
        leaf.model = None
        leaf.stats = None
        leaf.feature = feature
        leaf.threshold = threshold
        leaf.left = left
        leaf.right = right
        self._n_splits += 1

    # ------------------------------------------------------------ inference
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        leaf = self._route(x)
        assert leaf.model is not None
        return leaf.model.predict_proba(x)

    # ------------------------------------------------------- exact chunk kernel
    def predict_fit_interleaved(
        self, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Bit-exact test-then-train over a chunk.

        The chunk runs in segments that end at the rows where
        :meth:`partial_fit` would attempt a split: the first row at which a
        leaf above ``max_depth`` reaches a multiple of ``grace_period`` rows.
        Each segment is routed once with the current tree.  One lock-step
        :func:`replay_welford` replays its leaf perceptrons'
        standardisation chains and its leaves' split statistics (the float
        operations of :meth:`_LeafStats.update`);
        :func:`predict_fit_perceptrons` then scores and learns the rows, and
        the split is attempted.
        """
        features, labels, _ = self._checked_batch(features, labels)
        n_rows, n_classes = labels.shape[0], self._n_classes
        scores = np.empty((n_rows, n_classes))
        start = 0
        while start < n_rows:
            leaves, owner = self._route_rows(features[start:])
            stop, split_leaf = self._next_split_attempt(leaves, owner)
            segment = slice(start, start + stop)
            rows, targets, owner = features[segment], labels[segment], owner[:stop]
            models = [leaf.model for leaf in leaves]
            stats = [leaf.stats for leaf in leaves]
            # (leaf, class) statistics, only those the segment's rows reach.
            present, pair = np.unique(owner * n_classes + targets, return_inverse=True)
            stat_counts = np.concatenate([s.counts for s in stats])
            stat_means = np.concatenate([s.means for s in stats])
            stat_m2 = np.concatenate([s.m2 for s in stats])
            # One lock-step replay: the leaf perceptrons' standardisation
            # chains, then the leaves' per-class split statistics.
            count, mean, m2 = standardisation_chains(models)
            n_leaves = len(leaves)
            chains = replay_welford(
                np.concatenate([count, stat_counts[present]]),
                np.concatenate([mean, stat_means[present]]),
                np.concatenate([m2, stat_m2[present]]),
                np.concatenate([rows, rows]),
                np.concatenate([owner, n_leaves + pair]),
                n_leaves + present.shape[0],
            )
            predict_fit_perceptrons(
                models, rows, targets, owner, chains, scores[segment]
            )
            counts, means, m2s = chains.final()
            stat_counts[present] = counts[n_leaves:]
            stat_means[present] = means[n_leaves:]
            stat_m2[present] = m2s[n_leaves:]
            for g, leaf_stats in enumerate(stats):
                states = slice(g * n_classes, (g + 1) * n_classes)
                leaf_stats.counts[:] = stat_counts[states]
                leaf_stats.means[:] = stat_means[states]
                leaf_stats.m2[:] = stat_m2[states]
            if split_leaf is not None:
                self._attempt_split(split_leaf)
            start += stop
        return scores

    def _route_rows(self, features: np.ndarray) -> tuple[list[_TreeNode], np.ndarray]:
        """The leaves ``features`` reach and, per row, the index of its leaf
        (the comparisons of :meth:`_route`)."""
        leaves: list[_TreeNode] = []
        owner = np.empty(features.shape[0], dtype=np.intp)
        pending = [(self._root, np.arange(features.shape[0]))]
        while pending:
            node, rows = pending.pop()
            if not rows.shape[0]:
                continue
            if node.model is not None:
                owner[rows] = len(leaves)
                leaves.append(node)
                continue
            left = features[rows, node.feature] <= node.threshold
            pending.append((node.right, rows[~left]))
            pending.append((node.left, rows[left]))
        return leaves, owner

    def _next_split_attempt(
        self, leaves: list[_TreeNode], owner: np.ndarray
    ) -> tuple[int, _TreeNode | None]:
        """``(stop, leaf)``: the rows up to and including the first one after
        which :meth:`partial_fit` would attempt to split ``leaf``, or all
        rows and ``None``.  Leaf totals are whole numbers, so exact."""
        stop, split_leaf = owner.shape[0], None
        grace = self._grace_period
        for g, leaf in enumerate(leaves):
            assert leaf.stats is not None
            if leaf.depth >= self._max_depth:
                continue
            needed = grace - int(leaf.stats.total()) % grace
            rows = np.flatnonzero(owner[:stop] == g)
            if rows.shape[0] >= needed:
                stop, split_leaf = int(rows[needed - 1]) + 1, leaf
        return stop, split_leaf
