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

Batch stepping
--------------
:meth:`DriftDetector.step_batch` consumes a whole chunk at once and returns a
boolean drift flag per instance.  The contract is *chunk-exactness*: for any
split of the stream into batches, the flagged positions (and the recorded
detections, blamed classes, and observation counts) are identical to stepping
the same stream one instance at a time.  Every detector in the registry ships
a NumPy-native kernel built on :mod:`repro.core.windows`; the family base
classes here provide the shared plumbing (error extraction, detection
bookkeeping) plus a per-instance fallback so third-party subclasses that only
implement the scalar hook keep working unchanged.
"""

from __future__ import annotations

import abc

import numpy as np

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
        """Consume one labelled prediction and return ``in_drift``."""
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
        same positions a per-instance :meth:`step` loop would flag.  The
        family base classes (:class:`ErrorRateDetector`,
        :class:`ClassConditionalDetector`) route this through NumPy-native
        kernels; this base implementation is the per-instance fallback for
        detectors outside those families.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        flags = np.zeros(y_true.shape[0], dtype=bool)
        for i in range(y_true.shape[0]):
            flags[i] = self.step(features[i], int(y_true[i]), int(y_pred[i]))
        return flags

    def _record_batch(
        self,
        flags: np.ndarray,
        start_observations: int,
        detection_classes: list[set[int] | None] | None = None,
    ) -> None:
        """Commit a batch kernel's flags into the detection bookkeeping.

        Reproduces what :meth:`step` does per instance: observation counting
        and 1-based detection positions, plus (for class-aware detectors) the
        classes blamed for each detection, aligned with ``flags``'s True
        positions.
        """
        self._n_observations = start_observations + int(flags.shape[0])
        positions = np.flatnonzero(flags)
        for order, position in enumerate(positions):
            self._detections.append(start_observations + int(position) + 1)
            blamed = (
                detection_classes[order] if detection_classes is not None else None
            )
            self._detection_classes.append(set(blamed) if blamed else None)

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

    def step_batch(
        self,
        features: np.ndarray,
        y_true: np.ndarray,
        y_pred: np.ndarray,
    ) -> np.ndarray:
        """Batch stepping over the error stream (chunk-exact).

        Extracts the 0/1 error indicators once and hands them to
        :meth:`_add_elements` — the detector's vectorized kernel, or the
        scalar fallback loop for subclasses without one.  ``features`` is
        accepted for interface uniformity and ignored, as in :meth:`step`.
        """
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        errors = (y_true != y_pred).astype(np.float64)
        start = self._n_observations
        flags = self._add_elements(errors)
        self._record_batch(flags, start)
        return flags

    def _add_elements(self, errors: np.ndarray) -> np.ndarray:
        """Consume a 0/1 error array; return a per-element drift flag array.

        Fallback implementation loops over :meth:`add_element` with the same
        per-step state resets as :meth:`step`; registry detectors override it
        with NumPy kernels built on :mod:`repro.core.windows`.  Kernels must
        leave ``_in_drift`` / ``_in_warning`` reflecting the final element
        and must not touch the detection bookkeeping (handled by the caller).
        """
        flags = np.zeros(errors.shape[0], dtype=bool)
        for i, value in enumerate(errors.tolist()):
            self._in_drift = False
            self._in_warning = False
            self._drifted_classes = None
            self.add_element(value)
            flags[i] = self._in_drift
        return flags

    def _run_segments(self, errors: np.ndarray) -> np.ndarray:
        """Shared driver for segment-based kernels.

        Repeatedly hands the unconsumed tail to :meth:`_kernel_segment`,
        which processes elements of the current concept until a detection
        (after which the concept state has been reset and the driver resumes
        on the remainder) or the end of the chunk, returning ``(elements
        consumed, last element drifted, last element in warning)``.  An empty
        chunk is a strict no-op — state, including the drift/warning flags of
        the previous step, is preserved, exactly like a zero-iteration scalar
        loop.
        """
        n = errors.shape[0]
        flags = np.zeros(n, dtype=bool)
        if n == 0:
            return flags
        self._in_drift = False
        self._in_warning = False
        self._drifted_classes = None
        start = 0
        while start < n:
            consumed, drifted, warning = self._kernel_segment(errors[start:])
            if drifted:
                flags[start + consumed - 1] = True
            self._in_drift = drifted
            self._in_warning = warning
            start += consumed
        return flags

    def _kernel_segment(self, errors: np.ndarray) -> tuple[int, bool, bool]:
        """Segment kernel hook used by :meth:`_run_segments` overrides."""
        raise NotImplementedError

    @abc.abstractmethod
    def add_element(self, value: float) -> None:
        """Consume one monitored value (typically the 0/1 error)."""


class ClassConditionalDetector(DriftDetector):
    """Detectors that monitor per-class performance (PerfSim, DDM-OCI, RBM-IM).

    Subclasses implement :meth:`add_result` and may populate
    ``self._drifted_classes`` with the classes responsible for a detection.
    """

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

    def step_batch(
        self,
        features: np.ndarray,
        y_true: np.ndarray,
        y_pred: np.ndarray,
    ) -> np.ndarray:
        """Batch stepping over (true, predicted) label pairs (chunk-exact)."""
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        start = self._n_observations
        flags, classes = self._add_results(y_true, y_pred)
        self._record_batch(flags, start, classes)
        return flags

    def _add_results(
        self, y_true: np.ndarray, y_pred: np.ndarray
    ) -> tuple[np.ndarray, list[set[int] | None]]:
        """Consume label pairs; return per-element flags + per-detection classes.

        The classes list is aligned with the True positions of the flag
        array.  The fallback loops over :meth:`add_result`; PerfSim and
        DDM-OCI override it with native kernels.
        """
        flags = np.zeros(y_true.shape[0], dtype=bool)
        classes: list[set[int] | None] = []
        for i in range(y_true.shape[0]):
            self._in_drift = False
            self._in_warning = False
            self._drifted_classes = None
            self.add_result(int(y_true[i]), int(y_pred[i]))
            if self._in_drift:
                flags[i] = True
                classes.append(
                    set(self._drifted_classes) if self._drifted_classes else None
                )
        return flags, classes

    @abc.abstractmethod
    def add_result(self, y_true: int, y_pred: int) -> None:
        """Consume one (true label, predicted label) pair."""


class InstanceDetector(DriftDetector):
    """Detectors that consume raw instances (feature vector + true label)."""

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
