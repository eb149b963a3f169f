"""Unit tests for the statistical analysis module."""

import numpy as np
import pytest

from repro.evaluation.stats import (
    average_ranks,
    bayesian_signed_test,
    bonferroni_dunn_critical_distance,
    bonferroni_dunn_test,
    friedman_test,
    nemenyi_critical_distance,
)


class TestAverageRanks:
    def test_best_method_gets_rank_one(self):
        scores = np.array([[0.9, 0.5, 0.1], [0.8, 0.6, 0.2]])
        ranks = average_ranks(scores)
        np.testing.assert_allclose(ranks, [1.0, 2.0, 3.0])

    def test_lower_is_better_mode(self):
        scores = np.array([[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]])
        ranks = average_ranks(scores, higher_is_better=False)
        np.testing.assert_allclose(ranks, [1.0, 2.0, 3.0])

    def test_ties_get_midranks(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        ranks = average_ranks(scores)
        np.testing.assert_allclose(ranks, [1.5, 1.5, 3.0])

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            average_ranks(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            average_ranks(np.empty((0, 3)))

    @pytest.mark.parametrize("higher_is_better", [True, False])
    def test_equals_mean_of_scipy_rankdata_rows(self, higher_is_better):
        """Exactly scipy's per-row ranks, averaged: ties, signed zeros, NaN rows."""
        from scipy import stats

        rng = np.random.default_rng(2024)
        levels = np.array([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0])
        n_nan_results = 0
        for case in range(300):
            shape = (int(rng.integers(1, 8)), int(rng.integers(1, 10)))
            if case % 2:
                scores = rng.choice(levels, size=shape)
            else:
                scores = np.round(rng.random(shape), int(rng.integers(1, 4)))
            if case % 3 == 0:
                scores[rng.integers(shape[0]), rng.integers(shape[1])] = np.nan
            oriented = -scores if higher_is_better else scores
            expected = np.apply_along_axis(stats.rankdata, 1, oriented).mean(axis=0)
            np.testing.assert_array_equal(
                average_ranks(scores, higher_is_better), expected
            )
            n_nan_results += bool(np.isnan(expected).all())
        assert n_nan_results == 100


class TestFriedman:
    def test_detects_consistent_differences(self):
        rng = np.random.default_rng(0)
        base = rng.random((20, 1))
        scores = np.hstack([base + 0.3, base + 0.15, base])
        result = friedman_test(scores)
        assert result.significant
        assert result.average_ranks[0] < result.average_ranks[2]

    def test_no_difference_not_significant(self):
        rng = np.random.default_rng(1)
        scores = rng.random((15, 4))
        result = friedman_test(scores)
        assert result.p_value > 0.01

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            friedman_test(np.random.random((5, 2)))
        with pytest.raises(ValueError):
            friedman_test(np.random.random((1, 4)))

    def test_result_metadata(self):
        scores = np.random.default_rng(2).random((10, 3))
        result = friedman_test(scores)
        assert result.n_datasets == 10
        assert result.n_methods == 3
        assert result.average_ranks.shape == (3,)


class TestCriticalDistances:
    def test_bonferroni_dunn_matches_demsar_table(self):
        # Demsar (2006): q_0.05 for k=6 methods is 2.576 (z at alpha/(2*5)).
        cd = bonferroni_dunn_critical_distance(6, 24, alpha=0.05)
        expected = 2.576 * np.sqrt(6 * 7 / (6.0 * 24))
        assert cd == pytest.approx(expected, rel=1e-3)

    def test_cd_shrinks_with_more_datasets(self):
        assert bonferroni_dunn_critical_distance(5, 50) < bonferroni_dunn_critical_distance(5, 10)

    def test_nemenyi_larger_than_bonferroni_dunn(self):
        assert nemenyi_critical_distance(6, 24) > bonferroni_dunn_critical_distance(6, 24)

    def test_nemenyi_table_bounds(self):
        with pytest.raises(ValueError):
            nemenyi_critical_distance(11, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            bonferroni_dunn_critical_distance(1, 10)


class TestBonferroniDunnTest:
    def test_identifies_significantly_worse_methods(self):
        rng = np.random.default_rng(3)
        base = rng.random((30, 1))
        scores = np.hstack([base + 0.5, base + 0.02, base])
        result = bonferroni_dunn_test(scores, ["A", "B", "C"], control="A")
        assert "C" in result.significantly_worse
        assert result.average_ranks["A"] < result.average_ranks["C"]
        assert result.is_significantly_worse("C")

    def test_control_never_worse_than_itself(self):
        scores = np.random.default_rng(4).random((10, 3))
        result = bonferroni_dunn_test(scores, ["A", "B", "C"], control="B")
        assert "B" not in result.significantly_worse

    def test_unknown_control_rejected(self):
        with pytest.raises(ValueError):
            bonferroni_dunn_test(np.random.random((5, 3)), ["A", "B", "C"], control="X")


class TestBayesianSignedTest:
    def test_clear_winner(self):
        rng = np.random.default_rng(5)
        b = rng.random(24)
        a = b + 0.2
        result = bayesian_signed_test(a, b, rope=0.01, seed=0)
        assert result.p_left > 0.95
        assert result.winner == "left"

    def test_practical_equivalence_inside_rope(self):
        rng = np.random.default_rng(6)
        b = rng.random(24)
        a = b + rng.normal(0.0, 0.001, size=24)
        result = bayesian_signed_test(a, b, rope=0.05, seed=0)
        assert result.p_rope > 0.9
        assert result.winner == "rope"

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        b = rng.random(24)
        a = b - 0.3
        result = bayesian_signed_test(a, b, rope=0.01, seed=0)
        assert result.p_right > 0.95

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        a, b = rng.random(20), rng.random(20)
        result = bayesian_signed_test(a, b, seed=1)
        assert result.p_left + result.p_rope + result.p_right == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bayesian_signed_test(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            bayesian_signed_test(np.zeros(3), np.zeros(3), rope=-0.1)
