"""Common interface for all concept-drift detectors.

The paper compares detectors that consume very different signals: standard
detectors monitor the classifier's error stream, imbalance-aware detectors
monitor per-class performance, and RBM-IM consumes raw instances.  To let the
prequential harness treat them uniformly, every detector implements
:meth:`DriftDetector.step`, which receives the feature vector, the true label,
and the classifier's prediction; each family overrides the level it needs.

Detector state after each step is exposed through :attr:`in_warning`,
:attr:`in_drift`, and (for class-aware detectors) :attr:`drifted_classes`.
Detections are also logged with their positions for delay/false-alarm
analysis.

Input checks
------------
:meth:`DriftDetector.step` and :meth:`DriftDetector.step_batch` refuse input
outside the detector's domain (see :class:`ClassConditionalDetector` and
:class:`InstanceDetector`) with ``ValueError`` before any state changes, so
update rules may index per-class state by label unchecked.  The batch checks
are :meth:`DriftDetector._checked_batch`, which RBM-IM's ``warm_start`` also
runs; on every detector they refuse a label or prediction that is not a whole
number, by the rule the classifiers' batch checks share
(:func:`repro.core.labels.as_labels`).

Batch stepping
--------------
:meth:`DriftDetector.step_batch` consumes a whole chunk at once and returns a
boolean drift flag per instance.  The contract is *chunk-exactness*: for any
split of the stream into batches, the flagged positions (and the recorded
detections, blamed classes, and observation counts) are identical to stepping
the same stream one instance at a time.

``step_batch`` is the only batch loop.  It checks the batch, then hands the
unconsumed rows to the detector's :meth:`~DriftDetector._step_segment` hook,
which consumes rows up to and including the next drift, until the batch is
used up; ``step_batch`` alone keeps the batch bookkeeping (flags,
detections, blamed classes, observation count).  The default hook steps row
by row through the same ``_update`` as :meth:`DriftDetector.step`, so a
subclass that only implements its scalar method batches correctly; DDM-OCI
batches this way.  :class:`ErrorRateDetector`'s hook feeds the segment's
0/1 errors to ``add_element``, each error-rate detector's one update rule,
and PerfSim and RBM-IM override the hook to consume whole accumulation
batches at once.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.labels import as_labels
from repro.core.snapshot import Snapshotable

__all__ = [
    "DriftDetector",
    "ErrorRateDetector",
    "ClassConditionalDetector",
    "InstanceDetector",
]


class DriftDetector(Snapshotable, abc.ABC):
    """Base class for concept drift detectors.

    Subclasses set ``self._in_drift`` / ``self._in_warning`` during
    :meth:`step`; the base class maintains detection bookkeeping (positions of
    signalled drifts, total number of observations).

    Every detector is :class:`~repro.core.snapshot.Snapshotable`: the generic
    full-state walk captures the drift/warning flags, the detection
    bookkeeping, and all subclass statistics (windows, running sums,
    minima), so ``snapshot()``/``restore()`` round-trips are bit-identical
    under the same chunk-exactness contract as :meth:`step_batch`.
    """

    #: The domain :meth:`step` and :meth:`step_batch` check: labels lie in
    #: ``[0, _n_classes)``, ``y_pred`` included when ``_checks_y_pred``, and
    #: a feature row holds ``_n_features`` values.  ``None``: unchecked.
    _n_classes: int | None = None
    _n_features: int | None = None
    _checks_y_pred = False

    def __init__(self) -> None:
        self._in_drift = False
        self._in_warning = False
        self._n_observations = 0
        self._detections: list[int] = []
        self._detection_classes: list[set[int] | None] = []
        self._drifted_classes: set[int] | None = None

    # ------------------------------------------------------------------ API
    @property
    def in_drift(self) -> bool:
        """True if the most recent step signalled a drift."""
        return self._in_drift

    @property
    def in_warning(self) -> bool:
        """True if the most recent step signalled a warning."""
        return self._in_warning

    @property
    def drifted_classes(self) -> set[int] | None:
        """Classes the latest drift is attributed to (None = global/unknown)."""
        return self._drifted_classes

    @property
    def n_observations(self) -> int:
        """Number of observations consumed since the last reset."""
        return self._n_observations

    @property
    def detections(self) -> list[int]:
        """Observation indices (1-based) at which drifts were signalled."""
        return list(self._detections)

    @property
    def detection_classes(self) -> list[set[int] | None]:
        """For each detection, the classes blamed (None = global/unknown)."""
        return list(self._detection_classes)

    def reset(self) -> None:
        """Reset all detector state (called after drift-triggered rebuilds)."""
        self._in_drift = False
        self._in_warning = False
        self._n_observations = 0
        self._detections = []
        self._detection_classes = []
        self._drifted_classes = None

    def warm_start(self, X, y) -> None:
        """Optional initial training on the first batch of the stream.

        Most detectors are stateless with respect to raw data and ignore the
        warm-up batch; trainable detectors (e.g. RBM-IM) override this.
        """

    # ----------------------------------------------------------- lifecycle
    def step(self, x: np.ndarray, y_true: int, y_pred: int) -> bool:
        """Consume one labelled prediction and return ``in_drift``.

        A row outside the detector's domain is refused with ``ValueError``
        before any state changes.
        """
        n_classes = self._n_classes
        if n_classes is not None and not (
            0 <= y_true < n_classes
            and (not self._checks_y_pred or 0 <= y_pred < n_classes)
        ):
            raise ValueError(
                f"label out of range [0, {n_classes}): "
                f"y_true={y_true}, y_pred={y_pred}"
            )
        if self._n_features is not None and np.shape(x) != (self._n_features,):
            raise ValueError(
                f"expected {self._n_features} features, got shape {np.shape(x)}"
            )
        self._n_observations += 1
        self._in_drift = False
        self._in_warning = False
        self._drifted_classes = None
        self._update(x, y_true, y_pred)
        if self._in_drift:
            self._detections.append(self._n_observations)
            self._detection_classes.append(
                set(self._drifted_classes) if self._drifted_classes else None
            )
        return self._in_drift

    def step_batch(
        self,
        features: np.ndarray,
        y_true: np.ndarray,
        y_pred: np.ndarray,
    ) -> np.ndarray:
        """Consume a batch of labelled predictions.

        Returns a boolean array marking, for every instance of the batch,
        whether a drift was signalled at that instance — chunk-exact: the
        same positions a per-instance :meth:`step` loop would flag, with the
        same detections, blamed classes and observation count recorded.  A
        batch whose ``features``, ``y_true`` and ``y_pred`` disagree on the
        row count, or that holds a row outside the detector's domain, is
        refused with ``ValueError`` before any state changes.  An empty
        batch is a strict no-op (the flags of the previous step are kept).
        """
        features, y_true, y_pred = self._checked_batch(features, y_true, y_pred)
        n = y_true.shape[0]
        flags = np.zeros(n, dtype=bool)
        start = 0
        while start < n:
            self._in_drift = False
            self._in_warning = False
            self._drifted_classes = None
            start += self._step_segment(
                features[start:], y_true[start:], y_pred[start:]
            )
            if self._in_drift:
                flags[start - 1] = True
                self._detections.append(self._n_observations + start)
                self._detection_classes.append(
                    set(self._drifted_classes) if self._drifted_classes else None
                )
        self._n_observations += n
        return flags

    def _checked_batch(
        self, features, y_true, y_pred=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Coerce a batch to arrays; ``ValueError`` if a label or prediction
        is not a whole number (:func:`~repro.core.labels.as_labels`), its
        columns disagree on the row count or it holds a row outside the
        detector's domain.  ``y_pred=None`` checks a batch without
        predictions (a warm start).
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        y_true = as_labels(y_true)
        n = y_true.shape[0]
        if y_pred is not None:
            y_pred = as_labels(y_pred, "predictions")
        n_pred = n if y_pred is None else y_pred.shape[0]
        if features.shape[0] != n or n_pred != n:
            predictions = "" if y_pred is None else f", {n_pred} predictions"
            raise ValueError(
                f"batch rows disagree: {features.shape[0]} feature rows, "
                f"{n} labels{predictions}"
            )
        n_classes = self._n_classes
        if n_classes is not None and n:
            labels = (
                np.concatenate((y_true, y_pred))
                if self._checks_y_pred and y_pred is not None
                else y_true
            )
            if labels.min() < 0 or labels.max() >= n_classes:
                raise ValueError(
                    f"label out of range [0, {n_classes}): "
                    f"labels span {labels.min()}..{labels.max()}"
                )
        if self._n_features is not None and features.shape[1:] != (self._n_features,):
            raise ValueError(
                f"expected {self._n_features} features, got shape {features.shape}"
            )
        return features, y_true, y_pred

    def _step_segment(
        self, features: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray
    ) -> int:
        """Consume rows up to and including the next drift; return how many.

        :meth:`step_batch` calls this hook with at least one row and with
        the drift/warning flags cleared, and keeps all detection bookkeeping
        itself.  A hook must consume every row when none drifts and must
        leave ``_in_drift`` / ``_in_warning`` / ``_drifted_classes`` as
        :meth:`step` would after the last row it consumed.  This default
        steps row by row through :meth:`_update`.
        """
        update = self._update
        rows = zip(features, y_true.tolist(), y_pred.tolist())
        for i, (x, label, prediction) in enumerate(rows):
            self._in_drift = False
            self._in_warning = False
            self._drifted_classes = None
            update(x, label, prediction)
            if self._in_drift:
                return i + 1
        return y_true.shape[0]

    @abc.abstractmethod
    def _update(self, x: np.ndarray, y_true: int, y_pred: int) -> None:
        """Detector-specific update; must set ``_in_drift`` / ``_in_warning``."""


class ErrorRateDetector(DriftDetector):
    """Detectors that monitor the binary error stream of the classifier.

    Subclasses implement :meth:`add_element`, receiving 1.0 for a
    misclassification and 0.0 for a correct prediction (some detectors also
    accept arbitrary real-valued signals).
    """

    def _update(self, x: np.ndarray, y_true: int, y_pred: int) -> None:
        self.add_element(float(y_true != y_pred))

    def _step_segment(
        self, features: np.ndarray, y_true: np.ndarray, y_pred: np.ndarray
    ) -> int:
        # The per-row default hook, minus the feature rows: the same 0/1
        # errors reach add_element as through _update.
        add_element = self.add_element
        errors = (y_true != y_pred).astype(np.float64).tolist()
        for i, error in enumerate(errors):
            self._in_drift = False
            self._in_warning = False
            add_element(error)
            if self._in_drift:
                return i + 1
        return len(errors)

    @abc.abstractmethod
    def add_element(self, value: float) -> None:
        """Consume one monitored value (typically the 0/1 error)."""


class ClassConditionalDetector(DriftDetector):
    """Detectors that monitor per-class performance (PerfSim, DDM-OCI).

    Subclasses implement :meth:`add_result` and may populate
    ``self._drifted_classes`` with the classes responsible for a detection.
    :meth:`~DriftDetector.step` and :meth:`~DriftDetector.step_batch` refuse
    a ``y_true`` or ``y_pred`` outside ``[0, n_classes)``.
    """

    _checks_y_pred = True

    def __init__(self, n_classes: int) -> None:
        super().__init__()
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self._n_classes = n_classes

    @property
    def n_classes(self) -> int:
        return self._n_classes

    def _update(self, x: np.ndarray, y_true: int, y_pred: int) -> None:
        self.add_result(y_true, y_pred)

    @abc.abstractmethod
    def add_result(self, y_true: int, y_pred: int) -> None:
        """Consume one (true label, predicted label) pair."""


class InstanceDetector(DriftDetector):
    """Detectors that consume raw instances (feature vector + true label).

    :meth:`~DriftDetector.step` and :meth:`~DriftDetector.step_batch` refuse
    a feature row that is not ``n_features`` wide and a ``y_true`` outside
    ``[0, n_classes)``; ``y_pred`` is not checked.
    """

    def __init__(self, n_features: int, n_classes: int) -> None:
        super().__init__()
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self._n_features = n_features
        self._n_classes = n_classes

    @property
    def n_features(self) -> int:
        return self._n_features

    @property
    def n_classes(self) -> int:
        return self._n_classes

    def _update(self, x: np.ndarray, y_true: int, y_pred: int) -> None:
        self.add_instance(np.asarray(x, dtype=np.float64), int(y_true))

    @abc.abstractmethod
    def add_instance(self, x: np.ndarray, y: int) -> None:
        """Consume one labelled instance."""
