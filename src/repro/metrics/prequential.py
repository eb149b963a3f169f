"""Prequential (test-then-train) metric aggregation.

:class:`PrequentialEvaluator` bundles the paper's two headline metrics
(pmAUC, pmGM) plus accuracy and Kappa over a sliding window, and records the
metric trajectory so benchmark harnesses can report both final averages and
time series.  pmGM, accuracy and Kappa all read one windowed
:class:`~repro.metrics.confusion.StreamingConfusionMatrix`; pmAUC keeps its
own window of class scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.snapshot import Snapshotable, register_dataclass
from repro.metrics.confusion import StreamingConfusionMatrix
from repro.metrics.pmauc import PrequentialMultiClassAUC

__all__ = ["MetricSnapshot", "PrequentialEvaluator"]


@register_dataclass
@dataclass(frozen=True)
class MetricSnapshot:
    """Windowed metric values at a given stream position."""

    position: int
    pmauc: float
    pmgm: float
    accuracy: float
    kappa: float


@dataclass
class PrequentialEvaluator(Snapshotable):
    """Test-then-train metric tracker with periodic snapshots.

    Parameters
    ----------
    n_classes:
        Number of classes in the stream.
    window_size:
        Sliding-window length for all windowed metrics (1000 in the paper).
    snapshot_every:
        Distance (in instances) between recorded metric snapshots.
    """

    #: v2: one windowed confusion matrix serves pmGM, accuracy and Kappa,
    #: so v1 checkpoints (which also held a second one) are ignored.
    SNAPSHOT_VERSION = 2

    n_classes: int
    window_size: int = 1000
    snapshot_every: int = 500
    _auc: PrequentialMultiClassAUC = field(init=False)
    _confusion: StreamingConfusionMatrix = field(init=False)
    _snapshots: list[MetricSnapshot] = field(init=False, default_factory=list)
    _n_seen: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self._auc = PrequentialMultiClassAUC(self.n_classes, self.window_size)
        self._confusion = StreamingConfusionMatrix(
            self.n_classes, window_size=self.window_size
        )

    # ---------------------------------------------------------------- state
    @property
    def n_seen(self) -> int:
        return self._n_seen

    @property
    def snapshots(self) -> list[MetricSnapshot]:
        return list(self._snapshots)

    def reset(self) -> None:
        self._auc.reset()
        self._confusion.reset()
        self._snapshots.clear()
        self._n_seen = 0

    # -------------------------------------------------------------- updates
    def update(self, scores: np.ndarray, y_true: int, y_pred: int) -> None:
        """Record one test-then-train step (scores, truth, prediction)."""
        self._auc.update(scores, y_true)
        self._confusion.update(y_true, y_pred)
        self._n_seen += 1
        if self._n_seen % self.snapshot_every == 0:
            self._snapshots.append(self.metric_snapshot())

    def update_batch(
        self, scores: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray
    ) -> None:
        """Record a batch of steps, firing snapshots at the exact positions
        (and with the exact window contents) the per-instance path would."""
        scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        n = y_true.shape[0]
        start = 0
        while start < n:
            to_snapshot = self.snapshot_every - (self._n_seen % self.snapshot_every)
            end = min(n, start + to_snapshot)
            self._auc.update_batch(scores[start:end], y_true[start:end])
            self._confusion.update_batch(y_true[start:end], y_pred[start:end])
            self._n_seen += end - start
            if self._n_seen % self.snapshot_every == 0:
                self._snapshots.append(self.metric_snapshot())
            start = end

    # ------------------------------------------------------------- readouts
    def pmauc(self) -> float:
        return self._auc.value()

    def pmgm(self) -> float:
        return self._confusion.geometric_mean()

    def accuracy(self) -> float:
        return self._confusion.accuracy()

    def kappa(self) -> float:
        return self._confusion.kappa()

    def metric_snapshot(self) -> MetricSnapshot:
        """Windowed metric readouts at the current position."""
        return MetricSnapshot(
            position=self._n_seen,
            pmauc=self.pmauc(),
            pmgm=self.pmgm(),
            accuracy=self.accuracy(),
            kappa=self.kappa(),
        )

    def mean_pmauc(self) -> float:
        """Average of the pmAUC snapshots (the value reported in Table III)."""
        if not self._snapshots:
            return self.pmauc()
        return float(np.mean([snap.pmauc for snap in self._snapshots]))

    def mean_pmgm(self) -> float:
        """Average of the pmGM snapshots (the value reported in Table III)."""
        if not self._snapshots:
            return self.pmgm()
        return float(np.mean([snap.pmgm for snap in self._snapshots]))
