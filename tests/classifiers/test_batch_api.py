"""Batch interface of the streaming classifiers.

The default adapters must be exactly equivalent to per-instance calls; the
native vectorized paths (naive Bayes, perceptron) must agree with the
sequential semantics they document (moment merging for NB, mini-batch SGD for
the perceptron); the native ``predict_fit_interleaved`` kernels (naive Bayes,
perceptron, perceptron tree) must equal the scalar row loop bit for bit.
"""

import re
import warnings

import numpy as np
import pytest

from repro.classifiers import (
    GaussianNaiveBayes,
    MajorityClassClassifier,
    NoChangeClassifier,
)
from repro.classifiers.perceptron import OnlinePerceptron
from repro.classifiers.perceptron_tree import CostSensitivePerceptronTree
from repro.streams.generators import RandomRBFGenerator


@pytest.fixture(scope="module")
def data():
    features, labels = RandomRBFGenerator(
        n_classes=4, n_features=6, seed=0
    ).generate_batch(600)
    return features, labels


@pytest.fixture(scope="module")
def skewed_data():
    """600 RBF rows, 91% of them class 0; class 3 appears only in rows
    300-305, so it is absent from most chunks."""
    features, labels = RandomRBFGenerator(
        n_classes=4, n_features=6, seed=0
    ).generate_batch(4_000)
    rows = {label: np.flatnonzero(labels == label) for label in range(4)}
    order = np.concatenate([rows[0][:546], rows[1][:36], rows[2][:12]])
    np.random.default_rng(5).shuffle(order)
    order = np.insert(order, 300, rows[3][:6])
    return features[order], labels[order]


def _gnb_with_fractional_counts() -> GaussianNaiveBayes:
    """A GNB whose class counts are not whole numbers, so its count chains
    must add 1.0 in the row loop's order."""
    model = GaussianNaiveBayes(6, 4)
    features, labels = RandomRBFGenerator(
        n_classes=4, n_features=6, seed=9
    ).generate_batch(40)
    model.partial_fit_batch(features, labels, weights=np.linspace(0.15, 0.95, 40))
    return model


DEFAULT_ADAPTER_FACTORIES = [
    lambda: MajorityClassClassifier(6, 4),
    lambda: NoChangeClassifier(6, 4),
    lambda: CostSensitivePerceptronTree(
        n_features=6, n_classes=4, grace_period=50, max_depth=2, seed=1
    ),
]


@pytest.mark.parametrize("factory", DEFAULT_ADAPTER_FACTORIES)
def test_default_adapter_identical_to_loop(factory, data):
    features, labels = data
    batch_model = factory()
    loop_model = factory()
    batch_model.partial_fit_batch(features[:400], labels[:400])
    for i in range(400):
        loop_model.partial_fit(features[i], int(labels[i]))
    batch_scores = batch_model.predict_proba_batch(features[400:])
    loop_scores = np.vstack(
        [loop_model.predict_proba(features[i]) for i in range(400, 600)]
    )
    np.testing.assert_array_equal(batch_scores, loop_scores)


#: One factory per classifier: GNB, the perceptron and the trees have a
#: native ``predict_fit_interleaved`` kernel, the two baselines run the
#: base-class row loop.  On ``data``, "tree" and "tree-plain" split at rows
#: 49, 147 and 153; "tree-failed-splits" splits twice, and 15 of its 17
#: split attempts fail its threshold.  "gnb-fractional" starts from class
#: counts that are not whole numbers.
INTERLEAVED_FACTORIES = {
    "gnb": lambda: GaussianNaiveBayes(6, 4),
    "gnb-fractional": _gnb_with_fractional_counts,
    "perceptron": lambda: OnlinePerceptron(6, 4, seed=3),
    **dict(zip(("majority", "no-change", "tree"), DEFAULT_ADAPTER_FACTORIES)),
    "tree-plain": lambda: CostSensitivePerceptronTree(
        n_features=6,
        n_classes=4,
        grace_period=50,
        max_depth=2,
        cost_sensitive=False,
        seed=1,
    ),
    "tree-failed-splits": lambda: CostSensitivePerceptronTree(
        n_features=6,
        n_classes=4,
        grace_period=20,
        max_depth=2,
        split_threshold=2.5,
        seed=1,
    ),
}


#: Every factory on ``data`` (id: the factory name) and on ``skewed_data``,
#: where one class holds 91% of the rows and one is absent from most chunks.
STREAM_CASES = [
    pytest.param(name, stream, id=name + suffix)
    for stream, suffix in (("rbf", ""), ("skewed", "-skewed"))
    for name in sorted(INTERLEAVED_FACTORIES)
]


class TestPredictFitInterleaved:
    """The chunk-exact contract: any chunking equals the per-row loop bit for bit."""

    # Chunk 50 ends a chunk on the first split row.
    @pytest.mark.parametrize("chunk", [1, 7, 50, 64, None], ids=str)
    @pytest.mark.parametrize("name,stream", STREAM_CASES)
    def test_equals_row_loop_bitwise(self, name, stream, chunk, data, skewed_data):
        features, labels = data if stream == "rbf" else skewed_data
        n = labels.shape[0]
        loop_model = INTERLEAVED_FACTORIES[name]()
        expected = np.empty((n, 4))
        for i in range(n):
            expected[i] = loop_model.predict_proba(features[i])
            loop_model.partial_fit(features[i], int(labels[i]))
        if isinstance(loop_model, CostSensitivePerceptronTree):
            # Without a split the tree kernel's split path goes untested.
            assert loop_model.n_splits >= 1
        model = INTERLEAVED_FACTORIES[name]()
        step = chunk or n
        scores = np.vstack(
            [
                model.predict_fit_interleaved(
                    features[start : start + step], labels[start : start + step]
                )
                for start in range(0, n, step)
            ]
        )
        np.testing.assert_array_equal(
            scores.view(np.uint64), expected.view(np.uint64)
        )
        assert model.snapshot() == loop_model.snapshot()

    @pytest.mark.parametrize("name", sorted(INTERLEAVED_FACTORIES))
    def test_empty_chunk(self, name, data):
        features, labels = data
        model = INTERLEAVED_FACTORIES[name]()
        model.partial_fit_batch(features[:50], labels[:50])
        before = model.snapshot()
        scores = model.predict_fit_interleaved(
            np.empty((0, 6)), np.empty(0, dtype=np.int64)
        )
        assert scores.shape == (0, 4)
        assert model.snapshot() == before


@pytest.mark.parametrize("method", ["partial_fit_batch", "predict_fit_interleaved"])
@pytest.mark.parametrize("name", sorted(INTERLEAVED_FACTORIES))
def test_refuses_row_label_count_mismatch(name, method, data):
    features, labels = data
    model = INTERLEAVED_FACTORIES[name]()
    before = model.snapshot()
    with pytest.raises(ValueError, match="one 2-D feature row per label"):
        getattr(model, method)(features[:3], labels[:1])
    assert model.snapshot() == before


@pytest.mark.parametrize("label", [-1, 4], ids=["minus-one", "n-classes"])
@pytest.mark.parametrize("method", ["partial_fit_batch", "predict_fit_interleaved"])
@pytest.mark.parametrize("name", sorted(INTERLEAVED_FACTORIES))
def test_refuses_label_out_of_range(name, method, label, data):
    # -1 used to be learned as the last class through negative indexing, and
    # n_classes raised IndexError after part of the batch was learned.
    features, labels = data
    labels = labels[:10].copy()
    labels[6] = label
    model = INTERLEAVED_FACTORIES[name]()
    before = model.snapshot()
    with pytest.raises(ValueError, match=r"label out of range \[0, 4\)"):
        getattr(model, method)(features[:10], labels)
    assert model.snapshot() == before


@pytest.mark.parametrize("label", [0.4, np.nan], ids=["fraction", "nan"])
@pytest.mark.parametrize("method", ["partial_fit_batch", "predict_fit_interleaved"])
@pytest.mark.parametrize("name", sorted(INTERLEAVED_FACTORIES))
def test_refuses_label_that_is_not_a_whole_number(name, method, label, data):
    # An int64 cast used to learn 0.4 as class 0, and to turn NaN into
    # -2**63 with a RuntimeWarning before refusing it as out of range.
    features, labels = data
    labels = labels[:10].astype(np.float64)
    labels[6] = label
    model = INTERLEAVED_FACTORIES[name]()
    before = model.snapshot()
    message = re.escape(f"labels must be whole numbers, got {label!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            getattr(model, method)(features[:10], labels)
    assert model.snapshot() == before


@pytest.mark.parametrize("name", sorted(INTERLEAVED_FACTORIES))
def test_partial_fit_batch_refuses_weight_count_mismatch(name, data):
    features, labels = data
    model = INTERLEAVED_FACTORIES[name]()
    before = model.snapshot()
    with pytest.raises(ValueError, match="one weight per label"):
        model.partial_fit_batch(features[:3], labels[:3], weights=np.ones(2))
    assert model.snapshot() == before


def test_predict_batch_matches_argmax(data):
    features, labels = data
    model = GaussianNaiveBayes(6, 4)
    model.partial_fit_batch(features[:400], labels[:400])
    predictions = model.predict_batch(features[400:])
    assert predictions.shape == (200,)
    np.testing.assert_array_equal(
        predictions, np.argmax(model.predict_proba_batch(features[400:]), axis=1)
    )


class TestNaiveBayesNativeBatch:
    def test_moments_match_sequential(self, data):
        features, labels = data
        batch_model = GaussianNaiveBayes(6, 4)
        loop_model = GaussianNaiveBayes(6, 4)
        batch_model.partial_fit_batch(features, labels)
        for i in range(600):
            loop_model.partial_fit(features[i], int(labels[i]))
        np.testing.assert_allclose(batch_model._counts, loop_model._counts)
        np.testing.assert_allclose(
            batch_model._means, loop_model._means, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            batch_model._m2, loop_model._m2, rtol=1e-8, atol=1e-10
        )

    def test_batch_proba_matches_instance_proba(self, data):
        features, labels = data
        model = GaussianNaiveBayes(6, 4)
        model.partial_fit_batch(features[:500], labels[:500])
        batch_scores = model.predict_proba_batch(features[500:])
        loop_scores = np.vstack(
            [model.predict_proba(features[i]) for i in range(500, 600)]
        )
        np.testing.assert_allclose(batch_scores, loop_scores, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(batch_scores.sum(axis=1), 1.0)

    def test_weighted_batch(self, data):
        features, labels = data
        weighted = GaussianNaiveBayes(6, 4)
        doubled = GaussianNaiveBayes(6, 4)
        weighted.partial_fit_batch(
            features[:100], labels[:100], weights=np.full(100, 2.0)
        )
        doubled.partial_fit_batch(
            np.repeat(features[:100], 2, axis=0), np.repeat(labels[:100], 2)
        )
        np.testing.assert_allclose(weighted._counts, doubled._counts)
        np.testing.assert_allclose(weighted._means, doubled._means, rtol=1e-10)

    def test_zero_weight_is_a_no_op(self, data):
        # Weight 0 on an unseen class used to write 0 * delta / 0 = NaN into
        # the class's means and M2 for the rest of the run.
        features, labels = data
        model = GaussianNaiveBayes(6, 4)
        model.partial_fit(features[0], 1)
        before = model.snapshot()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.partial_fit(features[1], 2, weight=0.0)
            model.partial_fit(features[2], 1, weight=0.0)
        assert model.snapshot() == before
        assert np.isfinite(model._means).all() and np.isfinite(model._m2).all()

    def test_refuses_negative_weight(self, data):
        features, labels = data
        model = GaussianNaiveBayes(6, 4)
        model.partial_fit_batch(features[:20], labels[:20])
        before = model.snapshot()
        with pytest.raises(ValueError, match="must be >= 0"):
            model.partial_fit(features[20], 1, weight=-0.5)
        weights = np.ones(10)
        weights[7] = -1.0
        with pytest.raises(ValueError, match="must be >= 0"):
            model.partial_fit_batch(features[20:30], labels[20:30], weights=weights)
        assert model.snapshot() == before

    def test_unseen_class_guard(self):
        model = GaussianNaiveBayes(3, 3)
        model.partial_fit_batch(np.random.default_rng(0).random((20, 3)),
                                np.zeros(20, dtype=np.int64))
        scores = model.predict_proba_batch(np.random.default_rng(1).random((5, 3)))
        assert np.all(np.argmax(scores, axis=1) == 0)


class TestPerceptronNativeBatch:
    def test_learns_separable_problem(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(800, 4))
        labels = (features[:, 0] + features[:, 1] > 0).astype(np.int64)
        model = OnlinePerceptron(4, 2, cost_sensitive=False, seed=0)
        for start in range(0, 600, 50):
            model.partial_fit_batch(
                features[start : start + 50], labels[start : start + 50]
            )
        predictions = model.predict_batch(features[600:])
        accuracy = float(np.mean(predictions == labels[600:]))
        assert accuracy > 0.8

    def test_batch_proba_matches_instance_proba(self, data):
        features, labels = data
        model = OnlinePerceptron(6, 4, seed=3)
        model.partial_fit_batch(features[:500], labels[:500])
        batch_scores = model.predict_proba_batch(features[500:510])
        loop_scores = np.vstack(
            [model.predict_proba(features[i]) for i in range(500, 510)]
        )
        np.testing.assert_allclose(batch_scores, loop_scores, rtol=1e-9, atol=1e-12)

    def test_class_counts_accumulate(self, data):
        features, labels = data
        model = OnlinePerceptron(6, 4, seed=3)
        model.partial_fit_batch(features, labels)
        np.testing.assert_array_equal(
            model.class_counts, np.bincount(labels, minlength=4).astype(float)
        )
