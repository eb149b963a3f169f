"""EWMA for Concept Drift Detection (ECDD), Ross et al. 2012.

An exponentially weighted moving average of the error stream is compared
against control limits derived from the estimated pre-change error rate and
the exact time-dependent EWMA standard deviation.  The control limit is a
configurable multiple of that standard deviation (a classic L-sigma EWMA
chart); the default of 3 sigma keeps the in-control false-alarm rate low while
remaining reactive to genuine error-rate increases.

The batch kernel vectorizes everything that depends only on the (exact,
integer-valued) running error count — pre-change mean, EWMA sigma, control
limits — and replays only the inherently sequential EWMA recurrence in a
tight scalar loop with identical operations, so detections are bit-identical
to per-instance stepping.
"""

from __future__ import annotations

import numpy as np

from repro.core.windows import running_totals
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

    def _limits(self, counts, sums):
        """Clipped pre-change mean and drift control limit per position."""
        lam = self._lambda
        p = np.clip(sums / counts, 1e-9, 1.0 - 1e-9)
        variance = p * (1.0 - p)
        t = np.asarray(counts, dtype=np.float64)
        sigma_z = np.sqrt(
            variance
            * lam
            / (2.0 - lam)
            * (1.0 - (1.0 - lam) ** (2.0 * t))
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
        p, limit = float(p), float(limit)
        if self._ewma - p > limit:
            self._in_drift = True
            self._reset_concept()
        elif self._ewma - p > self._warning_fraction * limit:
            self._in_warning = True

    # ----------------------------------------------------------- batch kernel
    def _kernel_segment(self, errors: np.ndarray) -> tuple[int, bool, bool]:
        k = errors.shape[0]
        counts = self._count + np.arange(1, k + 1, dtype=np.int64)
        sums = running_totals(errors, self._error_sum)
        p, limit = self._limits(counts, sums)
        active = counts >= self._min_instances
        wfrac = self._warning_fraction
        lam = self._lambda
        one_minus = 1.0 - lam
        ewma = self._ewma
        values = errors.tolist()
        p_list = p.tolist()
        limit_list = limit.tolist()
        active_list = active.tolist()
        warning_last = False
        for i in range(k):
            ewma = one_minus * ewma + lam * values[i]
            warning_last = False
            if not active_list[i]:
                continue
            diff = ewma - p_list[i]
            if diff > limit_list[i]:
                self._reset_concept()
                return i + 1, True, False
            warning_last = diff > wfrac * limit_list[i]
        self._count = int(counts[-1])
        self._error_sum = float(sums[-1])
        self._ewma = ewma
        return k, False, warning_last
