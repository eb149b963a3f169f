"""Hoeffding's-bound drift detection methods (Frias-Blanco et al., 2015).

Two variants are provided:

* :class:`HDDM_A` — compares the running average of the monitored signal
  before and after a candidate cut point using the Hoeffding inequality
  (A-test, sensitive to abrupt changes);
* :class:`HDDM_W` — uses exponentially weighted moving averages and the
  McDiarmid inequality (W-test, more sensitive to gradual changes).

Both support one-sided or two-sided monitoring; for classifier error streams
the one-sided (increase in error) test is the standard configuration.

Each variant's ``add_element`` is its one update rule; ``step_batch`` feeds
it the 0/1 errors of a batch.
"""

from __future__ import annotations

import math

from repro.detectors.base import ErrorRateDetector

__all__ = ["HDDM_A", "HDDM_W"]


class HDDM_A(ErrorRateDetector):
    """HDDM with the averages test (Hoeffding inequality).

    Parameters
    ----------
    drift_confidence, warning_confidence:
        Significance levels for the drift and warning tests.
    two_sided:
        Monitor both increases and decreases of the signal mean.
    """

    def __init__(
        self,
        drift_confidence: float = 0.001,
        warning_confidence: float = 0.005,
        two_sided: bool = False,
    ) -> None:
        super().__init__()
        if not 0.0 < drift_confidence < warning_confidence < 1.0:
            raise ValueError("require 0 < drift_confidence < warning_confidence < 1")
        self._drift_confidence = drift_confidence
        self._warning_confidence = warning_confidence
        self._two_sided = two_sided
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._n_total = 0.0
        self._sum_total = 0.0
        self._n_min = 0.0
        self._sum_min = 0.0
        self._n_max = 0.0
        self._sum_max = 0.0

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    def _mean_incr(self, confidence: float) -> bool:
        if self._n_min == 0.0 or self._n_total == self._n_min:
            return False
        m = (self._n_total - self._n_min) / self._n_min * (1.0 / self._n_total)
        bound = math.sqrt(m / 2.0 * math.log(2.0 / confidence))
        return (
            self._sum_total / self._n_total - self._sum_min / self._n_min >= bound
        )

    def _mean_decr(self, confidence: float) -> bool:
        if self._n_max == 0.0 or self._n_total == self._n_max:
            return False
        m = (self._n_total - self._n_max) / self._n_max * (1.0 / self._n_total)
        bound = math.sqrt(m / 2.0 * math.log(2.0 / confidence))
        return (
            self._sum_max / self._n_max - self._sum_total / self._n_total >= bound
        )

    def add_element(self, value: float) -> None:
        self._n_total += 1.0
        self._sum_total += value
        # The reference windows move on Hoeffding bounds
        # sqrt(ln(1 / confidence) / (2 n)) at the drift confidence.
        log_term = math.log(1.0 / self._drift_confidence)
        mean = self._sum_total / self._n_total
        current_bound = math.sqrt(log_term / (2.0 * self._n_total))

        # Update the minimum-mean reference window.
        if self._n_min == 0.0:
            self._n_min, self._sum_min = self._n_total, self._sum_total
        else:
            min_bound = math.sqrt(log_term / (2.0 * self._n_min))
            if mean + current_bound <= self._sum_min / self._n_min + min_bound:
                self._n_min, self._sum_min = self._n_total, self._sum_total

        # Update the maximum-mean reference window (for two-sided tests).
        if self._n_max == 0.0:
            self._n_max, self._sum_max = self._n_total, self._sum_total
        else:
            max_bound = math.sqrt(log_term / (2.0 * self._n_max))
            if mean - current_bound >= self._sum_max / self._n_max - max_bound:
                self._n_max, self._sum_max = self._n_total, self._sum_total

        increased = self._mean_incr(self._drift_confidence)
        decreased = self._two_sided and self._mean_decr(self._drift_confidence)
        if increased or decreased:
            self._in_drift = True
            self._reset_concept()
        elif self._mean_incr(self._warning_confidence):
            self._in_warning = True


class HDDM_W(ErrorRateDetector):
    """HDDM with the weighted-averages test (McDiarmid inequality / EWMA).

    Parameters
    ----------
    drift_confidence, warning_confidence:
        Significance levels for the drift and warning tests.
    lambda_:
        EWMA decay factor in (0, 1]; smaller values weight recent samples
        more heavily.
    two_sided:
        Monitor both increases and decreases of the signal mean.
    """

    def __init__(
        self,
        drift_confidence: float = 0.001,
        warning_confidence: float = 0.005,
        lambda_: float = 0.05,
        two_sided: bool = False,
    ) -> None:
        super().__init__()
        if not 0.0 < drift_confidence < warning_confidence < 1.0:
            raise ValueError("require 0 < drift_confidence < warning_confidence < 1")
        if not 0.0 < lambda_ <= 1.0:
            raise ValueError("lambda_ must be in (0, 1]")
        self._drift_confidence = drift_confidence
        self._warning_confidence = warning_confidence
        self._lambda = lambda_
        self._two_sided = two_sided
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._total_ewma = 0.0
        self._total_ind_sum = 0.0  # sum of squared weights (for the bound)
        self._total_weight = 0.0
        self._min_ewma = math.inf
        self._min_ind_sum = 0.0
        self._min_weight = 0.0
        self._max_ewma = -math.inf
        self._max_ind_sum = 0.0
        self._max_weight = 0.0

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    @staticmethod
    def _mcdiarmid_bound(ind_sum: float, confidence: float) -> float:
        if ind_sum <= 0.0:
            return math.inf
        return math.sqrt(ind_sum * math.log(1.0 / confidence) / 2.0)

    def add_element(self, value: float) -> None:
        lam = self._lambda
        self._total_ewma = (1.0 - lam) * self._total_ewma + lam * value
        self._total_ind_sum = (1.0 - lam) ** 2 * self._total_ind_sum + lam**2
        self._total_weight += 1.0

        bound = self._mcdiarmid_bound(self._total_ind_sum, self._drift_confidence)
        if self._total_ewma + bound <= self._min_ewma + self._mcdiarmid_bound(
            self._min_ind_sum, self._drift_confidence
        ):
            self._min_ewma = self._total_ewma
            self._min_ind_sum = self._total_ind_sum
            self._min_weight = self._total_weight
        if self._total_ewma - bound >= self._max_ewma - self._mcdiarmid_bound(
            self._max_ind_sum, self._drift_confidence
        ):
            self._max_ewma = self._total_ewma
            self._max_ind_sum = self._total_ind_sum
            self._max_weight = self._total_weight

        if self._detect(self._drift_confidence):
            self._in_drift = True
            self._reset_concept()
        elif self._detect(self._warning_confidence):
            self._in_warning = True

    def _detect(self, confidence: float) -> bool:
        if math.isinf(self._min_ewma):
            return False
        epsilon = self._mcdiarmid_bound(
            self._total_ind_sum + self._min_ind_sum, confidence
        )
        increased = self._total_ewma - self._min_ewma >= epsilon
        if not self._two_sided:
            return increased
        if math.isinf(self._max_ewma):
            return increased
        epsilon_max = self._mcdiarmid_bound(
            self._total_ind_sum + self._max_ind_sum, confidence
        )
        decreased = self._max_ewma - self._total_ewma >= epsilon_max
        return increased or decreased
