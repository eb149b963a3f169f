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

Chunk-exact evaluation runs the tree's ``predict_fit_interleaved`` kernel,
which routes each row once and hands it to its leaf perceptron's fused
test-then-train row step.  It is bit-identical to ``predict_proba`` followed
by ``partial_fit`` per row, which stay the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.classifiers.base import StreamClassifier
from repro.classifiers.perceptron import OnlinePerceptron, _FitMemo, _RowScratch
from repro.core.hotpath import hot_path
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


class _LeafMemo(_FitMemo):
    """A leaf's call-local memo: its perceptron's, plus ``stats.total()``
    kept as a running total (exact: the counts are whole numbers)."""

    __slots__ = ("stats_total",)

    def __init__(self, leaf: _TreeNode, scratch: _RowScratch) -> None:
        assert leaf.model is not None and leaf.stats is not None
        super().__init__(leaf.model, scratch)
        self.stats_total = leaf.stats.total()


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
    @hot_path
    def predict_fit_interleaved(
        self, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Bit-exact test-then-train over a chunk.

        Per row: route once (on ``tolist()`` rows), let the leaf perceptron
        score and learn the row in one fused step
        (:meth:`OnlinePerceptron._predict_fit_row`), update the leaf's split
        statistics with the float operations of :meth:`_LeafStats.update`,
        and attempt a split exactly when :meth:`partial_fit` would.  Memos
        are keyed by node id: a split node stays in the tree (never routed
        to again), while its dropped model's id may be reused.
        """
        features, labels, _ = self._checked_batch(features, labels)
        scores = np.empty((labels.shape[0], self._n_classes))
        scratch = _RowScratch(self._n_features, self._n_classes)
        delta, term = scratch.delta, scratch.term
        memos: dict[int, _LeafMemo] = {}
        for i, (row, y) in enumerate(zip(features.tolist(), labels.tolist())):
            node = self._root
            while node.model is None:
                if row[node.feature] <= node.threshold:
                    node = node.left
                else:
                    node = node.right
            memo = memos.get(id(node))
            if memo is None:
                memo = memos[id(node)] = _LeafMemo(node, scratch)
            x = features[i]
            node.model._predict_fit_row(x, y, scores[i], scratch, memo)

            # _LeafStats.update(x, y), through the scratch buffers.
            stats = node.stats
            count = float(stats.counts[y]) + 1.0
            stats.counts[y] = count
            mean = stats.means[y]
            np.subtract(x, mean, out=delta)
            np.divide(delta, count, out=term)
            np.add(mean, term, out=mean)
            np.subtract(x, mean, out=term)
            np.multiply(delta, term, out=term)
            m2 = stats.m2[y]
            np.add(m2, term, out=m2)
            memo.stats_total += 1.0
            total = memo.stats_total
            if (
                node.depth < self._max_depth
                and total >= self._grace_period
                and total % self._grace_period == 0
            ):
                self._attempt_split(node)
        return scores
