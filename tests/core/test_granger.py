"""Unit tests for the first-difference Granger causality test."""

import numpy as np
import pytest

from repro.core.granger import first_differences, granger_causality


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
        varying = np.random.default_rng(3).normal(size=50)
        for cause, effect in [
            (np.ones(50), np.ones(50)),
            (np.ones(50), varying),
            (varying, np.ones(50)),
        ]:
            result = granger_causality(cause, effect, lags=1)
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
        differenced = granger_causality(x, y, lags=1)
        assert differenced.p_value > 0.001


#: Draws of two independent series, by kind: (rng, shape) -> array.
SERIES_KINDS = {
    "gaussian": lambda rng, shape: rng.normal(size=shape),
    "random-walk": lambda rng, shape: np.cumsum(rng.normal(size=shape), axis=1),
    "tiny-scale": lambda rng, shape: 1e-6 * rng.normal(size=shape),
    "rounded": lambda rng, shape: np.round(rng.normal(size=shape), 1),
}


def _reference_rss(columns, target):
    """OLS residual sum of squares with intercept, by QR projection."""
    design = np.column_stack([np.ones_like(target), *columns])
    q, _ = np.linalg.qr(design)
    residuals = target - q @ (q.T @ target)
    return float(residuals @ residuals)


def _reference_f(cause, effect, lags):
    """(F, denominator df) of the first-difference test, or None when the
    test is undefined: too few observations or a constant series."""
    cause, effect = np.diff(cause), np.diff(effect)
    n = effect.shape[0] - lags
    if n < 2 * lags + 2:
        return None
    if np.allclose(effect, effect[0]) or np.allclose(cause, cause[0]):
        return None
    target = effect[lags:]
    own = [effect[lags - k : lags - k + n] for k in range(1, lags + 1)]
    other = [cause[lags - k : lags - k + n] for k in range(1, lags + 1)]
    rss_restricted = _reference_rss(own, target)
    rss_unrestricted = _reference_rss(own + other, target)
    df_den = n - 2 * lags - 1
    f_statistic = ((rss_restricted - rss_unrestricted) / lags) / (
        rss_unrestricted / df_den
    )
    return max(f_statistic, 0.0), df_den


class TestKnownAnswer:
    """F, p and the decision against a second computation: residual sums by
    QR projection instead of least squares, p by ``scipy.stats.f.sf``."""

    @pytest.mark.parametrize("lags", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(SERIES_KINDS))
    def test_matches_qr_reference(self, kind, lags):
        from scipy import stats

        rng = np.random.default_rng(23)
        conclusive, results, references = [], [], []
        for _ in range(500):
            length = int(rng.integers(0, 26))
            cause, effect = SERIES_KINDS[kind](rng, (2, length))
            result = granger_causality(cause, effect, lags=lags)
            reference = _reference_f(cause, effect, lags)
            if reference is None:
                assert result.causality and result.p_value == 1.0
            else:
                conclusive.append((cause, effect))
                results.append(result)
                references.append(reference)
        assert len(conclusive) > 250

        f_reference, df_den = np.array(references).T
        p_reference = stats.f.sf(f_reference, lags, df_den)
        # Near F = 0 the statistic is a difference of two nearly equal
        # residual sums, so its rounding error is absolute, not relative.
        np.testing.assert_allclose(
            [result.f_statistic for result in results],
            f_reference,
            rtol=1e-8,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            [result.p_value for result in results], p_reference, rtol=0, atol=1e-10
        )
        for alpha in (0.05, 0.01):
            decisions = [
                granger_causality(cause, effect, lags=lags, alpha=alpha).causality
                for cause, effect in conclusive
            ]
            assert decisions == (p_reference < alpha).tolist()
            # Both outcomes occur, so agreement is not the inconclusive default.
            assert set(decisions) == {True, False}
