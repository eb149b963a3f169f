"""RBM-IM: the trainable drift detector for multi-class imbalanced streams.

This module ties together the pieces of Section V of the paper:

1. a :class:`~repro.core.rbm.SkewInsensitiveRBM` continuously trained on
   mini-batches with the class-balanced loss (Eqs. 13-21);
2. the per-class reconstruction error of each arriving mini-batch
   (Eqs. 22-27);
3. a per-class :class:`~repro.core.trend.TrendTracker` estimating the trend of
   the reconstruction error over an ADWIN-sized sliding window (Eqs. 28-37);
4. a first-difference Granger causality test between the trends of consecutive
   windows (Section V-B,
   :func:`~repro.core.granger.granger_causality`): when the previous trend no
   longer forecasts the current one *and* the reconstruction error of the
   class has escalated, a drift is signalled for that class.

The detector is fully trainable and self-adaptive: it re-trains itself on
every mini-batch, so it follows changing imbalance ratios and class-role
switches, and it reports drifts per class, enabling local drift detection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.granger import granger_causality
from repro.core.rbm import RBMConfig, SkewInsensitiveRBM
from repro.core.reconstruction import reconstruction_errors_from_hidden
from repro.core.scaling import OnlineMinMaxScaler
from repro.core.snapshot import register_dataclass
from repro.core.trend import TrendTracker
from repro.detectors.base import InstanceDetector

__all__ = ["RBMIMConfig", "RBMIM"]


@register_dataclass
@dataclass(frozen=True)
class RBMIMConfig:
    """Hyper-parameters of the RBM-IM drift detector (Table II, last block).

    Attributes
    ----------
    batch_size:
        Mini-batch size ``M`` (25-100 in the paper's tuning grid).
    hidden_ratio:
        Hidden-layer width as a fraction of the number of features
        (0.25-1.0 in the grid).
    learning_rate:
        RBM learning rate ``eta``.
    cd_steps:
        Gibbs sampling steps ``k`` of CD-k.
    train_epochs:
        Number of CD passes over each arriving mini-batch.  More passes make
        the detector follow the current concept faster (important for
        minority classes that contribute few instances per batch) at a small
        computational cost.
    balance_beta:
        ``beta`` of the class-balanced loss; set to 0 to disable the
        skew-insensitive weighting (ablation).
    warm_start_epochs:
        Number of passes over the first mini-batch used to initialise the RBM
        before monitoring starts.
    min_class_history:
        Minimum number of per-class reconstruction-error observations before
        the drift test activates for that class.
    min_class_samples:
        Minimum number of instances of a class pooled into one
        reconstruction-error observation.  Majority classes reach this within
        a single mini-batch; minority-class instances are accumulated across
        batches so their error estimates are not dominated by single-instance
        noise (essential under high imbalance ratios).
    granger_segment:
        Length of the "previous" and "current" trend sub-series compared by
        the lag-1 Granger test; ``2 * granger_segment`` must not exceed
        ``max_trend_window``, which bounds the trends a class keeps, or the
        test could never run.
    granger_alpha:
        Significance level of the Granger F-test, in (0, 1).
    sensitivity:
        Number of standard deviations the current per-class reconstruction
        error must exceed its window mean by to corroborate a drift.
    confirmation_batches:
        Number of consecutive suspicious mini-batches required before a drift
        is signalled for a class (1 = fire immediately; 2, the default,
        suppresses isolated noise spikes at the cost of one extra batch of
        detection delay).
    use_granger:
        Disable to fall back to the pure z-score rule (ablation).
    adwin_delta:
        Confidence of the ADWIN instances that size the trend windows.
    seed:
        RNG seed for the RBM.
    """

    batch_size: int = 50
    hidden_ratio: float = 0.5
    learning_rate: float = 0.05
    cd_steps: int = 1
    train_epochs: int = 1
    balance_beta: float = 0.999
    balance_decay: float = 0.999
    warm_start_epochs: int = 10
    min_class_history: int = 6
    min_class_samples: int = 5
    granger_segment: int = 6
    granger_alpha: float = 0.05
    sensitivity: float = 3.0
    warning_sensitivity: float = 2.0
    confirmation_batches: int = 2
    use_granger: bool = True
    adwin_delta: float = 0.002
    max_trend_window: int = 200
    scaler_forget: float = 0.0
    momentum: float = 0.5
    weight_decay: float = 1e-4
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not 0.0 < self.hidden_ratio <= 4.0:
            raise ValueError("hidden_ratio must be in (0, 4]")
        if self.granger_segment < 3:
            raise ValueError("granger_segment must be >= 3")
        if 2 * self.granger_segment > self.max_trend_window:
            raise ValueError("2 * granger_segment must not exceed max_trend_window")
        if not 0.0 < self.granger_alpha < 1.0:
            raise ValueError("granger_alpha must be in (0, 1)")
        if self.min_class_history < 2:
            raise ValueError("min_class_history must be >= 2")
        if self.sensitivity <= 0.0 or self.warning_sensitivity <= 0.0:
            raise ValueError("sensitivities must be positive")
        if self.confirmation_batches < 1:
            raise ValueError("confirmation_batches must be >= 1")
        if self.min_class_samples < 1:
            raise ValueError("min_class_samples must be >= 1")
        if self.train_epochs < 1:
            raise ValueError("train_epochs must be >= 1")


@register_dataclass
@dataclass
class _ClassMonitor:
    """Per-class bookkeeping: error history, trend tracker, pending alarms.

    The baseline error history keeps running first and second moments next to
    the bounded deque, so the z-score test reads two scalars instead of
    re-reducing the whole window on every mini-batch; the per-class sample
    pool is likewise reduced to (sum, count) — only its mean is ever used.
    """

    tracker: TrendTracker
    errors: deque = field(default_factory=lambda: deque(maxlen=400))
    error_sum: float = 0.0
    error_sumsq: float = 0.0
    pending: int = 0
    sample_sum: float = 0.0
    sample_count: int = 0

    def append_error(self, error: float) -> None:
        errors = self.errors
        if len(errors) == errors.maxlen:
            evicted = errors[0]
            self.error_sum -= evicted
            self.error_sumsq -= evicted * evicted
        errors.append(error)
        self.error_sum += error
        self.error_sumsq += error * error

    def reset(self) -> None:
        self.tracker.reset()
        self.errors.clear()
        self.error_sum = 0.0
        self.error_sumsq = 0.0
        self.pending = 0
        self.sample_sum = 0.0
        self.sample_count = 0


class RBMIM(InstanceDetector):
    """Restricted Boltzmann Machine drift detector for imbalanced streams.

    Parameters
    ----------
    n_features, n_classes:
        Shape of the monitored stream.
    config:
        Detector hyper-parameters; defaults follow the paper's tuned ranges.

    Notes
    -----
    The detector consumes raw labelled instances through
    :meth:`add_instance` (or the uniform :meth:`step` API).  Instances are
    buffered into mini-batches of ``config.batch_size``; when a batch is
    complete the detector (i) measures per-class reconstruction errors,
    (ii) updates per-class trends and runs the drift tests, and (iii) trains
    the RBM on the batch so it keeps tracking the current concept.
    """

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        config: RBMIMConfig | None = None,
    ) -> None:
        super().__init__(n_features, n_classes)
        self._cfg = config or RBMIMConfig()
        n_hidden = max(2, int(round(self._cfg.hidden_ratio * n_features)))
        rbm_config = RBMConfig(
            n_visible=n_features,
            n_hidden=n_hidden,
            n_classes=n_classes,
            learning_rate=self._cfg.learning_rate,
            cd_steps=self._cfg.cd_steps,
            momentum=self._cfg.momentum,
            weight_decay=self._cfg.weight_decay,
            balance_beta=self._cfg.balance_beta,
            balance_decay=self._cfg.balance_decay,
            seed=self._cfg.seed,
        )
        self._rbm_config = rbm_config
        self._rbm = SkewInsensitiveRBM(rbm_config)
        self._scaler = OnlineMinMaxScaler(n_features, forget=self._cfg.scaler_forget)
        self._monitors = [
            _ClassMonitor(
                tracker=TrendTracker(
                    adwin_delta=self._cfg.adwin_delta,
                    max_window=self._cfg.max_trend_window,
                )
            )
            for _ in range(n_classes)
        ]
        # Mini-batch accumulator: a preallocated block the instance and batch
        # paths both write rows into (no per-instance list bookkeeping).
        self._buffer_X = np.empty((self._cfg.batch_size, n_features))
        self._buffer_y = np.empty(self._cfg.batch_size, dtype=np.int64)
        self._buffer_n = 0
        self._row_arange = np.arange(self._cfg.batch_size)
        # Per-batch scratch: packed [v | z] rows, hidden activations and the
        # reconstruction output are reused across mini-batches (contents are
        # fully overwritten each `_process_batch`).
        self._vz0_buf = np.zeros((self._cfg.batch_size, n_features + n_classes))
        self._h_buf = np.empty((self._cfg.batch_size, n_hidden))
        self._recon_buf = np.empty((self._cfg.batch_size, n_features + n_classes))
        self._warm_started = False
        self._batches_processed = 0
        self._last_per_class_errors = np.full(n_classes, np.nan)

    #: v2: ``RBMIMConfig``, part of the state, lost its Granger lag order
    #: and its error-increase switch, so older checkpoints are ignored.
    SNAPSHOT_VERSION = 2

    # Scratch (shape-derived, fully overwritten each batch) is rebuilt on
    # restore; the mini-batch accumulator is captured as its filled prefix so
    # uninitialised tail bytes never leak into (or differ between) snapshots.
    _SNAPSHOT_EXCLUDE = frozenset({
        "_row_arange", "_vz0_buf", "_h_buf", "_recon_buf",
        "_buffer_X", "_buffer_y",
    })

    def _snapshot_state(self) -> dict:
        state = super()._snapshot_state()
        state["buffer_rows_X"] = self._buffer_X[: self._buffer_n].copy()
        state["buffer_rows_y"] = self._buffer_y[: self._buffer_n].copy()
        return state

    def _restore_state(self, state: dict) -> None:
        rows_X = state.pop("buffer_rows_X")
        rows_y = state.pop("buffer_rows_y")
        super()._restore_state(state)
        batch_size = self._cfg.batch_size
        self._buffer_X = np.empty((batch_size, self._n_features))
        self._buffer_y = np.empty(batch_size, dtype=np.int64)
        self._buffer_X[: rows_X.shape[0]] = rows_X
        self._buffer_y[: rows_y.shape[0]] = rows_y

    def _after_restore(self) -> None:
        batch_size = self._cfg.batch_size
        n_vz = self._n_features + self._n_classes
        self._row_arange = np.arange(batch_size)
        self._vz0_buf = np.zeros((batch_size, n_vz))
        self._h_buf = np.empty((batch_size, self._rbm_config.n_hidden))
        self._recon_buf = np.empty((batch_size, n_vz))

    # ---------------------------------------------------------------- state
    @property
    def config(self) -> RBMIMConfig:
        return self._cfg

    @property
    def rbm(self) -> SkewInsensitiveRBM:
        """The underlying skew-insensitive RBM (for inspection/ablation)."""
        return self._rbm

    @property
    def batches_processed(self) -> int:
        return self._batches_processed

    @property
    def last_per_class_errors(self) -> np.ndarray:
        """Per-class reconstruction errors of the most recent mini-batch."""
        return self._last_per_class_errors.copy()

    def class_trend(self, label: int) -> list[float]:
        """Trend history of a class's reconstruction error."""
        return self._monitors[label].tracker.trend_history

    def reset(self) -> None:
        """Reset to a freshly constructed detector.

        Rebuilds the RBM (same seed) and the scaler and clears the warm-start
        flag, so a reset detector replays a stream exactly like a new
        instance — stale weights or feature ranges cannot leak into the next
        run.
        """
        super().reset()
        for monitor in self._monitors:
            monitor.reset()
        self._buffer_n = 0
        self._rbm = SkewInsensitiveRBM(self._rbm_config)
        self._scaler = OnlineMinMaxScaler(
            self._n_features, forget=self._cfg.scaler_forget
        )
        self._warm_started = False
        self._batches_processed = 0
        self._last_per_class_errors = np.full(self._n_classes, np.nan)

    # ------------------------------------------------------------ training
    def warm_start(self, X: Sequence[np.ndarray], y: Sequence[int]) -> None:
        """Initialise the RBM on the first batch of the stream.

        The paper trains the detector on the first instance batch before
        monitoring begins; several epochs over that batch give the RBM a
        usable representation of the initial concept.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.int64)
        if X.shape[0] == 0:
            raise ValueError("warm_start requires at least one instance")
        scaled = self._scaler.fit_transform(X)
        for _ in range(self._cfg.warm_start_epochs):
            self._rbm.partial_fit(scaled, y)
        self._warm_started = True

    # ------------------------------------------------------------- updates
    def add_instance(self, x: np.ndarray, y: int) -> None:
        """Buffer one labelled instance; run detection when the batch is full."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {x.shape[0]}"
            )
        if not 0 <= int(y) < self._n_classes:
            raise ValueError("label out of range")
        n = self._buffer_n
        self._buffer_X[n] = x
        self._buffer_y[n] = int(y)
        self._buffer_n = n + 1
        if self._buffer_n >= self._cfg.batch_size:
            self._process_batch()

    def _step_segment(
        self, features: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray
    ) -> int:
        """Native batch stepping: identical detections, no per-instance loop.

        Rows are appended to the mini-batch buffer in bulk and the
        detection/training pipeline runs whenever the buffer reaches
        ``config.batch_size`` — exactly the boundaries the per-instance
        :meth:`step` path would hit — stopping at the first mini-batch that
        drifts, so detections (positions and blamed classes) are
        bit-identical to instance-mode stepping.
        """
        n = y_true.shape[0]
        batch_size = self._cfg.batch_size
        consumed = 0
        while consumed < n:
            filled = self._buffer_n
            take = min(n - consumed, batch_size - filled)
            self._buffer_X[filled : filled + take] = features[
                consumed : consumed + take
            ]
            self._buffer_y[filled : filled + take] = y_true[
                consumed : consumed + take
            ]
            self._buffer_n = filled + take
            consumed += take
            self._in_warning = False
            if self._buffer_n >= batch_size:
                self._process_batch()
                if self._in_drift:
                    break
        return consumed

    # ------------------------------------------------------------ internals
    def _process_batch(self) -> None:
        n = self._buffer_n
        self._buffer_n = 0
        X = self._buffer_X[:n]
        y = self._buffer_y[:n]

        if not self._warm_started:
            self.warm_start(X, y)
            self._batches_processed += 1
            return

        scaled = self._scaler.partial_fit_transform(X)

        # One fused forward pass on packed [v | z] rows: the hidden
        # probabilities feed both the Eq. 26 reconstruction errors and the
        # positive phase of the first CD epoch below.
        n_features = self._n_features
        vz0 = self._vz0_buf[:n]
        vz0[:, :n_features] = scaled
        z0 = vz0[:, n_features:]
        z0[:] = 0.0
        vz0[self._row_arange[:n], n_features + y] = 1.0
        h = self._rbm.hidden_probabilities_packed(vz0, out=self._h_buf[:n])
        errors = reconstruction_errors_from_hidden(
            self._rbm, scaled, z0, h, recon_out=self._recon_buf[:n]
        )

        # Pool instance errors per class; minority classes accumulate across
        # mini-batches until `min_class_samples` instances are available so
        # their error estimate is not single-instance noise (Eq. 27 averaged
        # over an adaptive per-class pool).  Two bincounts replace the
        # per-class mask scans.
        counts = np.bincount(y, minlength=self._n_classes).tolist()
        error_sums = np.bincount(
            y, weights=errors, minlength=self._n_classes
        ).tolist()
        per_class_errors = np.full(self._n_classes, np.nan)
        min_samples = self._cfg.min_class_samples
        min_history = self._cfg.min_class_history
        drifted: set[int] = set()
        warning = False
        for label in range(self._n_classes):
            monitor = self._monitors[label]
            if counts[label]:
                monitor.sample_sum += error_sums[label]
                monitor.sample_count += counts[label]
            if monitor.sample_count < min_samples:
                continue
            error = monitor.sample_sum / monitor.sample_count
            monitor.sample_sum = 0.0
            monitor.sample_count = 0
            per_class_errors[label] = error
            monitor.tracker.update(error)
            if len(monitor.errors) < min_history:
                monitor.append_error(error)
                continue
            suspicious, is_warning = self._test_class(monitor, error)
            if suspicious:
                # Suspicious batches are not absorbed into the baseline: the
                # class either confirms the drift on the next batches or the
                # alarm is retracted and normal tracking resumes.
                monitor.pending += 1
                if monitor.pending >= self._cfg.confirmation_batches:
                    drifted.add(label)
                else:
                    warning = True
            else:
                monitor.pending = 0
                monitor.append_error(error)
                warning = warning or is_warning

        self._last_per_class_errors = per_class_errors
        if drifted:
            self._in_drift = True
            self._drifted_classes = drifted
            for label in drifted:
                self._monitors[label].reset()
        elif warning:
            self._in_warning = True

        # Continual adaptation: the RBM learns the newest mini-batch, except
        # for instances of classes that are currently under suspicion (pending
        # confirmation) — training on them would erase the very signal the
        # confirmation step needs.  Once a drift is confirmed the monitors are
        # reset and the class is learned again from the next batch onward.
        # The common no-suspicion case reuses the z0/h pair from the error
        # pass for the first epoch's positive phase; later epochs recompute h
        # because the parameters have moved.
        pending = [
            label
            for label, monitor in enumerate(self._monitors)
            if monitor.pending > 0 and label not in drifted
        ]
        cfg = self._cfg
        if not pending:
            self._rbm.partial_fit(scaled, y, vz0=vz0, h0=h, want_error=False)
            for _ in range(cfg.train_epochs - 1):
                self._rbm.partial_fit(scaled, y, vz0=vz0, want_error=False)
        else:
            train_mask = ~np.isin(y, pending)
            if train_mask.any():
                vz0_t = vz0[train_mask]
                scaled_t = vz0_t[:, :n_features]
                y_t = y[train_mask]
                self._rbm.partial_fit(
                    scaled_t, y_t, vz0=vz0_t, h0=h[train_mask], want_error=False
                )
                for _ in range(cfg.train_epochs - 1):
                    self._rbm.partial_fit(scaled_t, y_t, vz0=vz0_t, want_error=False)
        self._batches_processed += 1

    def _test_class(self, monitor: _ClassMonitor, error: float) -> tuple[bool, bool]:
        """Drift / warning decision for one class given its error history.

        No drift unless the class's z-score against its baseline exceeds
        ``sensitivity``.  An escalated class drifts unless ``use_granger`` is
        on, at least ``2 * granger_segment`` trends exist and the lag-1
        Granger test still finds that the previous trend window forecasts
        the current one.  The baseline mean/std come from the monitor's
        running first and second moments (two scalar reads instead of
        reducing the whole window every mini-batch).
        """
        cfg = self._cfg
        k = len(monitor.errors)
        mean = monitor.error_sum / k
        variance = monitor.error_sumsq / k - mean * mean
        std = float(np.sqrt(variance)) if variance > 0.0 else 0.0
        std = max(std, 1e-3 * max(abs(mean), 1e-6), 1e-9)
        z_score = (error - mean) / std
        escalated = z_score > cfg.sensitivity
        warning = z_score > cfg.warning_sensitivity
        if not escalated:
            return False, warning

        segment = cfg.granger_segment
        if not cfg.use_granger or monitor.tracker.n_trends < 2 * segment:
            # Without the test (ablation) or enough trend history for it, the
            # escalation alone decides, so early drifts are not missed.
            return True, False

        tail = monitor.tracker.trend_tail(2 * segment)
        drift = not granger_causality(
            tail[:segment], tail[segment:], alpha=cfg.granger_alpha
        ).causality
        return drift, warning and not drift
