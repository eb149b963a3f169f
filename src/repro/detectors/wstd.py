"""Wilcoxon rank-sum test drift detector (WSTD), de Barros et al. 2018.

WSTD keeps two sub-windows over the stream of prediction-correctness bits: an
"old" window of historical behaviour (capped at ``max_old_instances``) and a
"recent" sliding window of the newest ``window_size`` observations.  The two
samples are compared with the Wilcoxon rank-sum (Mann-Whitney U) test; a
p-value below the warning/drift significance levels raises the corresponding
state.

Because the samples are 0/1 indicator bits, the rank test depends only on the
*counts* ``(n_old, ones_old, n_recent, ones_recent)``: the ``z`` pooled zeros
share the midrank ``(z + 1) / 2`` and the ``o`` pooled ones the midrank
``z + (o + 1) / 2``, so the rank sum, the U statistic and the tie correction
are closed-form functions of the counts.  :func:`_rank_sum_p_values` evaluates
scipy's tie- and continuity-corrected normal approximation from those counts
with the same floating-point operations in the same order.  Every
intermediate up to the standard deviation is an exactly representable
half-integer or integer, so the p-values are bit-identical to
``scipy.stats.mannwhitneyu(..., method="asymptotic")`` on the windows
themselves (pinned against :func:`_rank_sum_p_value`, the scipy reference).
:meth:`WSTD.add_element` is the detector's one update rule; ``step_batch``
feeds it the 0/1 errors of a batch, and no state outlives the detector.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from repro.core.windows import RingWindow
from repro.detectors.base import ErrorRateDetector

__all__ = ["WSTD"]


@lru_cache(maxsize=65536)  # lint: disable=global-memo -- scipy reference for tests; perfbench reads cache_info()
def _rank_sum_p_value(n_old: int, ones_old: int, n_recent: int, ones_recent: int) -> float:
    """Two-sided asymptotic Mann-Whitney p-value for two 0/1 samples.

    The scipy reference for :func:`_rank_sum_p_values`: the samples are
    reconstructed from their counts and handed to scipy.  No detector path
    calls it, so ``scipy.stats`` (a large import) is loaded here, not with
    the module.
    """
    from scipy import stats

    old = np.concatenate(
        [np.ones(ones_old), np.zeros(n_old - ones_old)]
    )
    recent = np.concatenate(
        [np.ones(ones_recent), np.zeros(n_recent - ones_recent)]
    )
    _stat, p_value = stats.mannwhitneyu(
        old, recent, alternative="two-sided", method="asymptotic"
    )
    return float(p_value)


def _rank_sum_p_values(
    n_old: int, ones_old: int, n_recent: int, ones_recent: int
) -> float:
    """Two-sided asymptotic Mann-Whitney p-value from 0/1 sample counts.

    Bit-identical to :func:`_rank_sum_p_value` on Python ints.  Callers
    exclude a constant pooled sample, for which the test is undefined.
    """
    n1, a, n2, b = n_old, ones_old, n_recent, ones_recent
    zeros = (n1 - a) + (n2 - b)
    ones = a + b
    n = n1 + n2
    r1 = (n1 - a) * ((zeros + 1) / 2) + a * (zeros + (ones + 1) / 2)
    u1 = r1 - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    tie_term = (zeros**3 - zeros) + (ones**3 - ones)
    s = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    p = 2 * float(special.ndtr(-((u - n1 * n2 / 2 - 0.5) / s)))
    return min(max(p, 0.0), 1.0)


class WSTD(ErrorRateDetector):
    """Wilcoxon rank-sum test drift detection.

    Parameters
    ----------
    window_size:
        Length of the recent sliding window (25-100 in the paper's grid).
    warning_significance, drift_significance:
        p-value thresholds for the warning and drift states.
    max_old_instances:
        Maximum number of historical observations retained for the "old"
        sample (1000-4000 in the paper's grid).
    min_instances:
        Observations required before testing begins.
    """

    def __init__(
        self,
        window_size: int = 75,
        warning_significance: float = 0.05,
        drift_significance: float = 0.003,
        max_old_instances: int = 2_000,
        min_instances: int = 150,
    ) -> None:
        super().__init__()
        if window_size < 5:
            raise ValueError("window_size must be >= 5")
        if not 0.0 < drift_significance <= warning_significance < 1.0:
            raise ValueError("require 0 < drift_significance <= warning_significance < 1")
        self._window_size = window_size
        self._warning_significance = warning_significance
        self._drift_significance = drift_significance
        self._max_old_instances = max_old_instances
        self._min_instances = max(min_instances, 2 * window_size)
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._recent = RingWindow(self._window_size)
        self._old = RingWindow(self._max_old_instances)
        self._count = 0

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    def add_element(self, value: float) -> None:
        correct = 0.0 if value > 0.5 else 1.0
        self._count += 1
        if len(self._recent) == self._window_size:
            self._old.append(self._recent.oldest())
        self._recent.append(correct)

        if self._count < self._min_instances or len(self._old) < self._window_size:
            return

        n_old = len(self._old)
        ones_old = int(self._old.sum)
        ones_recent = int(self._recent.sum)
        if self._is_constant(n_old, ones_old, len(self._recent), ones_recent):
            return  # identical constant samples: no evidence of change
        p_value = _rank_sum_p_values(
            n_old, ones_old, len(self._recent), ones_recent
        )
        if p_value < self._drift_significance:
            self._in_drift = True
            self._reset_concept()
        elif p_value < self._warning_significance:
            self._in_warning = True

    @staticmethod
    def _is_constant(
        n_old: int, ones_old: int, n_recent: int, ones_recent: int
    ) -> bool:
        """Both samples constant and equal (the rank test is undefined)."""
        if ones_old == 0:
            return ones_recent == 0
        if ones_old == n_old:
            return ones_recent == n_recent
        return False
