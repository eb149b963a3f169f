"""Unit tests for the first-difference Granger causality test."""

import numpy as np
import pytest

from repro.core.granger import (
    first_differences,
    granger_causality,
    granger_causality_lag1_diff,
)


class TestFirstDifferences:
    def test_values(self):
        np.testing.assert_allclose(
            first_differences(np.array([1.0, 3.0, 6.0])), [2.0, 3.0]
        )

    def test_length_shrinks_by_one(self):
        assert first_differences(np.arange(10.0)).shape == (9,)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            first_differences(np.array([1.0]))

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            first_differences(np.zeros((3, 3)))


class TestGrangerCausality:
    def _causal_pair(self, n=200, lag=1, noise=0.05, seed=0):
        """y depends on lagged x -> x Granger-causes y."""
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.normal(0.0, 1.0, size=n))
        y = np.zeros(n)
        for t in range(lag, n):
            y[t] = 0.9 * x[t - lag] + noise * rng.normal()
        return x, y

    def test_detects_causal_relationship(self):
        x, y = self._causal_pair()
        result = granger_causality(x, y, lags=1, alpha=0.05)
        assert result.causality
        assert result.p_value < 0.05

    def test_independent_noise_not_causal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        result = granger_causality(x, y, lags=1, alpha=0.01)
        assert not result.causality or result.p_value > 0.001

    def test_short_series_is_inconclusive(self):
        result = granger_causality(np.arange(4.0), np.arange(4.0), lags=1)
        assert result.causality  # conservative default: "no drift evidence"
        assert result.p_value == 1.0

    def test_constant_series_is_inconclusive(self):
        result = granger_causality(np.ones(50), np.ones(50), lags=1)
        assert result.causality
        assert result.p_value == 1.0

    def test_lag_order_validation(self):
        with pytest.raises(ValueError):
            granger_causality(np.arange(10.0), np.arange(10.0), lags=0)

    def test_dimensionality_validation(self):
        with pytest.raises(ValueError):
            granger_causality(np.zeros((5, 2)), np.zeros(5))

    def test_mismatched_lengths_are_aligned(self):
        x, y = self._causal_pair(n=150)
        result = granger_causality(x[:120], y, lags=1)
        assert result.n_observations > 0

    def test_result_fields_consistent(self):
        x, y = self._causal_pair()
        result = granger_causality(x, y, lags=2)
        assert result.lags == 2
        assert result.f_statistic >= 0.0
        assert 0.0 <= result.p_value <= 1.0

    def test_first_difference_handles_trending_series(self):
        # Two independent series sharing a deterministic trend: levels look
        # spuriously related, first differences should not.
        rng = np.random.default_rng(2)
        trend = np.linspace(0.0, 50.0, 300)
        x = trend + rng.normal(0.0, 0.1, size=300)
        y = trend + rng.normal(0.0, 0.1, size=300)
        differenced = granger_causality(x, y, lags=1, use_first_differences=True)
        assert differenced.p_value > 0.001


#: Draws of two independent series, by kind: (rng, shape) -> array.
SERIES_KINDS = {
    "gaussian": lambda rng, shape: rng.normal(size=shape),
    "random-walk": lambda rng, shape: np.cumsum(rng.normal(size=shape), axis=1),
    "tiny-scale": lambda rng, shape: 1e-6 * rng.normal(size=shape),
    "rounded": lambda rng, shape: np.round(rng.normal(size=shape), 1),
}


class TestLag1FirstDifferenceFastPath:
    """``granger_causality_lag1_diff`` is the test RBM-IM runs: with
    ``granger_lags=1`` its ``_test_class`` compares two 6-long trend windows
    through it.  It re-derives the lag-1 first-difference test in scalar
    arithmetic, so its decision must equal the array implementation's."""

    @staticmethod
    def _reference(cause, effect, alpha):
        return granger_causality(
            np.asarray(cause, dtype=np.float64),
            np.asarray(effect, dtype=np.float64),
            lags=1,
            alpha=alpha,
            use_first_differences=True,
        ).causality

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    @pytest.mark.parametrize("kind", sorted(SERIES_KINDS))
    def test_decision_matches_array_path(self, kind, alpha):
        rng = np.random.default_rng(23)
        decisions = set()
        for _ in range(2_000):
            length = int(rng.integers(2, 14))
            cause, effect = SERIES_KINDS[kind](rng, (2, length))
            fast = granger_causality_lag1_diff(
                cause.tolist(), effect.tolist(), alpha=alpha
            )
            assert fast == self._reference(cause, effect, alpha), (
                kind,
                cause.tolist(),
                effect.tolist(),
            )
            decisions.add(fast)
        # Both outcomes occur, so agreement is not the inconclusive default.
        assert decisions == {True, False}

    @pytest.mark.parametrize("length", [0, 1, 2, 5, 6, 13])
    def test_constant_and_short_series_agree(self, length):
        rng = np.random.default_rng(length)
        varying = rng.normal(size=length)
        constant = np.full(length, 0.25)
        for cause, effect in [
            (constant, constant),
            (constant, varying),
            (varying, constant),
            (varying, varying),
        ]:
            fast = granger_causality_lag1_diff(cause.tolist(), effect.tolist())
            assert fast == self._reference(cause, effect, 0.05)
            if length < 6 or cause is constant or effect is constant:
                assert fast  # inconclusive: "no drift evidence"
