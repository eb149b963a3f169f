"""EWMA for Concept Drift Detection (ECDD), Ross et al. 2012.

An exponentially weighted moving average of the error stream is compared
against control limits derived from the estimated pre-change error rate and
the exact time-dependent EWMA standard deviation.  The control limit is a
configurable multiple of that standard deviation (a classic L-sigma EWMA
chart); the default of 3 sigma keeps the in-control false-alarm rate low while
remaining reactive to genuine error-rate increases.

:meth:`ECDDWT.add_element` is the detector's one update rule; ``step_batch``
feeds it the 0/1 errors of a batch.
"""

from __future__ import annotations

import math

from repro.detectors.base import ErrorRateDetector

__all__ = ["ECDDWT"]


class ECDDWT(ErrorRateDetector):
    """EWMA chart drift detector with warning threshold.

    Parameters
    ----------
    lambda_:
        EWMA smoothing constant (0.2 recommended by the authors).
    warning_fraction:
        Fraction of the drift control limit at which the warning state is
        raised (e.g. 0.5 means warn at half the drift limit).
    control_limit:
        Control-limit multiplier ``L`` applied to the EWMA standard deviation.
    min_instances:
        Observations required before testing begins.
    """

    def __init__(
        self,
        lambda_: float = 0.05,
        warning_fraction: float = 0.5,
        control_limit: float = 3.5,
        min_instances: int = 30,
    ) -> None:
        super().__init__()
        if not 0.0 < lambda_ <= 1.0:
            raise ValueError("lambda_ must be in (0, 1]")
        if not 0.0 < warning_fraction < 1.0:
            raise ValueError("warning_fraction must be in (0, 1)")
        if control_limit <= 0.0:
            raise ValueError("control_limit must be positive")
        self._lambda = lambda_
        self._warning_fraction = warning_fraction
        self._control_limit = control_limit
        self._min_instances = min_instances
        self._reset_concept()

    def _reset_concept(self) -> None:
        self._count = 0
        self._error_sum = 0.0
        self._ewma = 0.0

    def reset(self) -> None:
        super().reset()
        self._reset_concept()

    def _limits(self, count: int, error_sum: float) -> tuple[float, float]:
        """Clipped pre-change mean and drift control limit after ``count`` rows."""
        lam = self._lambda
        p = min(max(error_sum / count, 1e-9), 1.0 - 1e-9)
        variance = p * (1.0 - p)
        sigma_z = math.sqrt(
            variance
            * lam
            / (2.0 - lam)
            * (1.0 - (1.0 - lam) ** (2.0 * count))
        )
        return p, self._control_limit * sigma_z

    def add_element(self, value: float) -> None:
        error = 1.0 if value > 0.5 else 0.0
        self._count += 1
        # Pre-change error estimate uses only the running mean.
        self._error_sum += error
        self._ewma = (1.0 - self._lambda) * self._ewma + self._lambda * error

        if self._count < self._min_instances:
            return

        p, limit = self._limits(self._count, self._error_sum)
        if self._ewma - p > limit:
            self._in_drift = True
            self._reset_concept()
        elif self._ewma - p > self._warning_fraction * limit:
            self._in_warning = True
