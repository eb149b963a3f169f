"""Prequential (test-then-train) evaluation harness.

Reproduces the paper's experimental protocol: every instance is first used to
test the classifier (updating the windowed pmAUC / pmGM metrics), then handed
to the drift detector, and finally used to train the classifier.  When the
detector signals a drift the classifier is rebuilt and re-initialised from a
short buffer of the most recent instances (the usual warning-window protocol).
The runner also records where the detector fired, per-component timings, and
the drift-detection report against the stream's ground truth.

Two loops serve three execution modes:

* **instance mode** (``chunk_size=None``) — the scalar loop, one
  :class:`~repro.streams.base.Instance` at a time; the reference oracle the
  chunked modes are tested against;
* **the chunk driver** (``chunk_size=c``) pulls the stream in vectorized
  chunks of ``c`` via :meth:`DataStream.generate_batch` (bit-identical to
  per-instance generation), trains on the pretrain rows, warm-starts the
  detector, and hands each post-pretrain segment to one segment step:

  - **exact** (the default) — bit-identical results to instance mode at chunk
    speed: the classifier chain runs through the bit-exact
    ``predict_fit_interleaved`` kernel, the detector consumes the segment
    through its chunk-exact ``step_batch``, and metrics fold in via
    ``update_batch``.  Segments execute optimistically; a mid-segment drift
    rolls the detector back to a snapshot and deterministically replays up
    to the drift row, so the rebuilt classifier scores the remaining rows,
    exactly like the instance loop.  The pretrain rows, like every
    rebuilt classifier's replay buffer (in all modes), go through the same
    kernel with the scores dropped: the state equals a ``partial_fit`` per
    row;
  - **batch** (``batch_mode=True``, which requires ``chunk_size``) —
    test-then-train at chunk granularity: the whole segment is scored with
    ``predict_proba_batch``, stepped through ``step_batch``, and trained with
    ``partial_fit_batch``.  Every registry detector's ``step_batch`` is
    *chunk-exact* (bit-identical detections to per-instance stepping for the
    same prediction stream), so detection *positions* stay
    instance-granular.  A drift inside a chunk rebuilds the
    classifier before the post-drift rows are trained, but rows after a drift
    within the same chunk were already scored by the pre-drift classifier —
    the standard interleaved-chunks trade-off.  This is the fast path used by
    the throughput benchmarks; detectors that ignore the prediction stream
    (e.g. RBM-IM) produce identical detections in every mode.

Every mode is **checkpointable**: passing ``checkpoint_path`` to :meth:`run`
persists a :class:`~repro.evaluation.checkpoint.RunnerCheckpoint` (stream +
classifier + detector + metrics + loop bookkeeping) atomically at instance
boundaries, and a later invocation with the same configuration resumes from
it with results bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque

import numpy as np

from repro.classifiers.base import StreamClassifier
from repro.core.snapshot import Snapshotable
from repro.detectors.base import DriftDetector
from repro.evaluation.checkpoint import RunnerCheckpoint
from repro.metrics.drift_eval import DriftDetectionReport, evaluate_detections
from repro.metrics.prequential import MetricSnapshot, PrequentialEvaluator
from repro.streams.base import DataStream
from repro.streams.scenarios import ScenarioStream

__all__ = ["RunResult", "PrequentialRunner"]

ClassifierFactory = Callable[[int, int], StreamClassifier]

#: Recent (x, y) pairs replayed into a freshly built classifier after a
#: drift-triggered reset.
_Replay = Deque[tuple[np.ndarray, int]]


def _extend_replay(replay: _Replay, rows: np.ndarray, labels: np.ndarray) -> None:
    """Extend the bounded replay deque with ``(x, int(y))`` pairs.

    The deque keeps only its last ``maxlen`` entries, so rows a large chunk
    would immediately push out again are never materialised as tuples.
    """
    maxlen = replay.maxlen
    if maxlen is not None and labels.shape[0] > maxlen:
        rows = rows[-maxlen:]
        labels = labels[-maxlen:]
    replay.extend(zip(rows, labels.tolist()))


@dataclass
class RunResult:
    """Outcome of one prequential run of (stream, classifier, detector).

    Attributes
    ----------
    pmauc, pmgm:
        Mean windowed pmAUC / pmG-mean over the run (Table III values).
    accuracy, kappa:
        Final windowed accuracy and Cohen's kappa.
    detections:
        Stream positions at which the detector signalled drifts.
    detected_classes:
        For each detection, the classes blamed by the detector (empty set for
        global/unattributed detections).
    drift_report:
        Match of detections against the stream's ground-truth drift points
        (``None`` when the stream has no ground truth).
    detector_time, classifier_time:
        Total seconds spent inside the detector and the classifier.
    n_instances:
        Number of instances processed.
    snapshots:
        Periodic metric snapshots along the stream.
    """

    stream_name: str
    detector_name: str
    pmauc: float
    pmgm: float
    accuracy: float
    kappa: float
    detections: list[int]
    detected_classes: list[set[int]]
    drift_report: DriftDetectionReport | None
    detector_time: float
    classifier_time: float
    n_instances: int
    snapshots: list[MetricSnapshot] = field(default_factory=list)


class PrequentialRunner:
    """Test-then-train evaluation loop with detector-triggered resets.

    Parameters
    ----------
    classifier_factory:
        Callable ``(n_features, n_classes) -> StreamClassifier`` used to build
        (and rebuild after drifts) the base classifier.
    window_size:
        Sliding-window length of the prequential metrics (1000 in the paper).
    pretrain_size:
        Number of initial instances used purely for training (and detector
        warm-up) before evaluation starts.
    rebuild_buffer:
        Number of most recent instances replayed into a freshly built
        classifier after a drift-triggered reset.
    snapshot_every:
        Spacing of metric snapshots.
    chunk_size:
        When set, instances are pulled from the stream in vectorized chunks
        of this size (see module docstring); ``None`` keeps the classic
        per-instance loop.
    batch_mode:
        Batch the classifier/detector calls too (test-then-train at chunk
        granularity) for maximum throughput.  Requires ``chunk_size``.
    """

    def __init__(
        self,
        classifier_factory: ClassifierFactory,
        window_size: int = 1000,
        pretrain_size: int = 200,
        rebuild_buffer: int = 200,
        snapshot_every: int = 500,
        chunk_size: int | None = None,
        batch_mode: bool = False,
    ) -> None:
        if pretrain_size < 0 or rebuild_buffer < 0:
            raise ValueError("pretrain_size and rebuild_buffer must be >= 0")
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 or None")
        if batch_mode and chunk_size is None:
            raise ValueError("batch_mode requires chunk_size")
        self._classifier_factory = classifier_factory
        self._window_size = window_size
        self._pretrain_size = pretrain_size
        self._rebuild_buffer = rebuild_buffer
        self._snapshot_every = snapshot_every
        self._chunk_size = chunk_size
        self._batch_mode = batch_mode

    # ----------------------------------------------------------------- run
    def run(
        self,
        stream: DataStream | ScenarioStream,
        detector: DriftDetector | None,
        n_instances: int | None = None,
        detector_name: str | None = None,
        drift_tolerance: int = 2_000,
        checkpoint_path: "str | Path | None" = None,
        checkpoint_every: int | None = None,
    ) -> RunResult:
        """Evaluate one detector on one stream.

        Parameters
        ----------
        stream:
            A raw :class:`DataStream` or a :class:`ScenarioStream` (which also
            carries ground-truth drift points and a recommended length).
        detector:
            The drift detector under test, or ``None`` for a detector-less
            baseline (classifier never reset).
        n_instances:
            Number of instances to process; defaults to the scenario's
            recommended length or 10 000; a finite stream may end sooner.
        checkpoint_path:
            When set, a :class:`~repro.evaluation.checkpoint.RunnerCheckpoint`
            is written atomically to this path at instance boundaries (chunk
            boundaries in the chunked modes) and — if the file already holds a
            checkpoint matching this exact run configuration — the run
            *resumes* from it, producing results bit-identical to an
            uninterrupted run.  A missing, torn, or mismatched checkpoint is
            ignored and the run starts from the beginning.
        checkpoint_every:
            Minimum number of instances between checkpoint writes; defaults
            to the chunk size (or 1000 in instance mode).
        """
        scenario: ScenarioStream | None = None
        if isinstance(stream, ScenarioStream):
            scenario = stream
            data_stream = scenario.stream
            if n_instances is None:
                n_instances = scenario.n_instances
            stream_name = scenario.name
        else:
            data_stream = stream
            stream_name = data_stream.name
        if n_instances is None:
            n_instances = 10_000
        chunk = self._chunk_size
        batched = self._batch_mode
        if chunk is not None and not batched and detector is not None:
            # Chunk-exact mode rolls the detector back through snapshot() /
            # restore() when a drift lands mid-chunk.
            _require_snapshotable("chunk-exact mode", "detector", detector)

        state = _RunState(
            classifier=self._classifier_factory(
                data_stream.n_features, data_stream.n_classes
            ),
            evaluator=PrequentialEvaluator(
                n_classes=data_stream.n_classes,
                window_size=self._window_size,
                snapshot_every=self._snapshot_every,
            ),
            replay=deque(maxlen=max(self._rebuild_buffer, 1)),
        )

        checkpointer: "_Checkpointer | None" = None
        start_at = 0
        if checkpoint_path is not None:
            meta = {
                "stream": stream_name,
                "detector": self._describe(detector),
                "n_instances": int(n_instances),
                "chunk_size": chunk,
                "batch_mode": bool(batched),
                "window_size": self._window_size,
                "pretrain_size": self._pretrain_size,
                "rebuild_buffer": self._rebuild_buffer,
                "snapshot_every": self._snapshot_every,
            }
            every = (
                int(checkpoint_every)
                if checkpoint_every is not None
                else (chunk or 1_000)
            )
            # Fail up front with a clear message, not mid-run inside a save:
            # checkpointing needs every bundled component to be snapshotable.
            for role, part in (
                ("stream", data_stream),
                ("detector", detector),
                ("classifier", state.classifier),
            ):
                if part is not None:
                    _require_snapshotable("checkpoint_path", role, part)
            checkpointer = _Checkpointer(
                Path(checkpoint_path), every, meta, data_stream, detector
            )
            start_at = checkpointer.resume(state)

        if chunk is None:
            produced = self._run_instance_mode(
                data_stream, detector, n_instances, state, start_at, checkpointer
            )
        else:
            produced = self._run_chunked(
                data_stream, detector, n_instances, chunk, state, start_at,
                checkpointer,
            )

        drift_report = None
        if scenario is not None:
            drift_report = evaluate_detections(
                scenario.drift_points, state.detections, tolerance=drift_tolerance
            )

        return RunResult(
            stream_name=stream_name,
            detector_name=detector_name or self._describe(detector),
            pmauc=state.evaluator.mean_pmauc(),
            pmgm=state.evaluator.mean_pmgm(),
            accuracy=state.evaluator.accuracy(),
            kappa=state.evaluator.kappa(),
            detections=state.detections,
            detected_classes=state.detected_classes,
            drift_report=drift_report,
            detector_time=state.detector_time,
            classifier_time=state.classifier_time,
            n_instances=produced,
            snapshots=state.evaluator.snapshots,
        )

    # ----------------------------------------------------- execution modes
    def _run_instance_mode(
        self,
        data_stream: DataStream,
        detector: DriftDetector | None,
        n_instances: int,
        state: "_RunState",
        start_at: int = 0,
        checkpointer: "_Checkpointer | None" = None,
    ) -> int:
        """The scalar loop: one Instance at a time (the reference oracle).

        Returns the number of rows processed, resumed rows included.
        """
        produced = start_at
        while produced < n_instances:
            try:
                instance = data_stream.next_instance()
            except StopIteration:
                break
            self._step_one(
                instance.x, int(instance.y), produced, detector, state
            )
            produced += 1
            if checkpointer is not None:
                checkpointer.maybe_save(produced, state)
        return produced

    def _run_chunked(
        self,
        data_stream: DataStream,
        detector: DriftDetector | None,
        n_instances: int,
        chunk: int,
        state: "_RunState",
        start_at: int = 0,
        checkpointer: "_Checkpointer | None" = None,
    ) -> int:
        """The chunk driver shared by chunk-exact and batch mode.

        Trains on the pretrain rows, warm-starts the detector right before
        the first post-pretrain row, and hands each post-pretrain segment to
        the mode's segment step.  A step returns the in-segment row of the
        drift it handled (the rest of the chunk becomes the next segment) or
        ``-1`` once the segment is consumed.  Returns the number of rows
        processed, resumed rows included.
        """
        batched = self._batch_mode
        advance = (
            self._advance_batch_segment if batched else self._advance_exact_segment
        )
        produced = start_at
        pretrain = self._pretrain_size
        while produced < n_instances:
            features, labels = data_stream.generate_batch(
                min(chunk, n_instances - produced)
            )
            n_rows = int(labels.shape[0])
            if n_rows == 0:
                break

            offset = 0
            if produced < pretrain:
                # Pretrain rows never touch the detector or the metrics.
                offset = min(pretrain - produced, n_rows)
                start = time.perf_counter()
                if batched:
                    state.classifier.partial_fit_batch(
                        features[:offset], labels[:offset]
                    )
                else:
                    # The chunk-exact kernel, scores dropped: its state is
                    # bit-identical to the instance loop's partial_fit calls.
                    state.classifier.predict_fit_interleaved(
                        features[:offset], labels[:offset]
                    )
                state.classifier_time += time.perf_counter() - start
                state.warm_x.append(features[:offset])
                state.warm_y.append(labels[:offset])
                _extend_replay(state.replay, features[:offset], labels[:offset])
            if produced + offset == pretrain and offset < n_rows:
                _warm_start(detector, state)

            seg = offset
            while seg < n_rows:
                drift_row = advance(
                    features[seg:], labels[seg:], produced + seg, detector, state
                )
                if drift_row < 0:
                    break
                seg += drift_row + 1
            produced += n_rows
            if checkpointer is not None:
                checkpointer.maybe_save(produced, state)
        return produced

    def _advance_exact_segment(
        self,
        seg_x: np.ndarray,
        seg_y: np.ndarray,
        seg_start: int,
        detector: DriftDetector | None,
        state: "_RunState",
    ) -> int:
        """Exact mode's segment step: bit-identical to the instance loop.

        The segment runs *optimistically*: the detector is snapshotted, and
        the whole segment is scored, stepped and folded into the metrics.
        Only a drift can invalidate that, because the rows after it must be
        rescored by the rebuilt classifier, so on the first drift flag the
        detector is rolled back and replayed up to the drift row.

        Returns the in-segment row index of the first drift (after fully
        handling it: detector replay, metrics, classifier rebuild, and the
        drift row's train step), or ``-1`` when the whole segment completed
        without drifting.
        """
        n_rows = seg_y.shape[0]
        snapshot = None
        if detector is not None and n_rows > 1:
            # The versioned snapshot contract skips the detector's scratch
            # buffers (rebuilt on restore), and it is the same state model
            # crash-resume uses.
            snapshot = detector.snapshot()

        start = time.perf_counter()
        scores = state.classifier.predict_fit_interleaved(seg_x, seg_y)
        state.classifier_time += time.perf_counter() - start
        predictions = np.argmax(scores, axis=1).astype(np.int64)

        if detector is None:
            state.evaluator.update_batch(scores, seg_y, predictions)
            _extend_replay(state.replay, seg_x, seg_y)
            return -1

        start = time.perf_counter()
        flags = detector.step_batch(seg_x, seg_y, predictions)
        state.detector_time += time.perf_counter() - start
        drift_rows = np.flatnonzero(flags)
        if drift_rows.shape[0] == 0:
            state.evaluator.update_batch(scores, seg_y, predictions)
            _extend_replay(state.replay, seg_x, seg_y)
            return -1

        # Only the first flag is trustworthy: rows after it were scored by
        # the (about to be discarded) pre-drift classifier.
        row = int(drift_rows[0])
        if row != n_rows - 1:
            detector.restore(snapshot)
            start = time.perf_counter()
            detector.step_batch(
                seg_x[: row + 1], seg_y[: row + 1], predictions[: row + 1]
            )
            state.detector_time += time.perf_counter() - start
        state.evaluator.update_batch(
            scores[: row + 1], seg_y[: row + 1], predictions[: row + 1]
        )
        _extend_replay(state.replay, seg_x[: row + 1], seg_y[: row + 1])
        state.detections.append(seg_start + row)
        state.detected_classes.append(set(detector.drifted_classes or set()))
        state.classifier = self._rebuild_classifier(
            seg_x.shape[1], state.evaluator.n_classes, state.replay
        )
        start = time.perf_counter()
        state.classifier.partial_fit(seg_x[row], int(seg_y[row]))
        state.classifier_time += time.perf_counter() - start
        return row

    def _advance_batch_segment(
        self,
        seg_x: np.ndarray,
        seg_y: np.ndarray,
        seg_start: int,
        detector: DriftDetector | None,
        state: "_RunState",
    ) -> int:
        """Batch mode's segment step: test-then-train at chunk granularity.

        The whole segment is scored with ``predict_proba_batch``, stepped
        through ``step_batch`` and trained with ``partial_fit_batch``.  After
        the segment's last drift the classifier is rebuilt and trained only
        on the rows that follow it.  Always returns ``-1``: the segment is
        consumed whole.
        """
        start = time.perf_counter()
        scores = state.classifier.predict_proba_batch(seg_x)
        state.classifier_time += time.perf_counter() - start
        predictions = np.argmax(scores, axis=1).astype(np.int64)
        state.evaluator.update_batch(scores, seg_y, predictions)

        last_drift_row = -1
        if detector is not None:
            start = time.perf_counter()
            flags = detector.step_batch(seg_x, seg_y, predictions)
            state.detector_time += time.perf_counter() - start
            drift_rows = np.flatnonzero(flags)
            if drift_rows.shape[0]:
                blamed = detector.detection_classes[-drift_rows.shape[0] :]
                for row, classes in zip(drift_rows, blamed):
                    state.detections.append(seg_start + int(row))
                    state.detected_classes.append(set(classes or set()))
                last_drift_row = int(drift_rows[-1])

        if last_drift_row >= 0:
            _extend_replay(
                state.replay,
                seg_x[: last_drift_row + 1],
                seg_y[: last_drift_row + 1],
            )
            state.classifier = self._rebuild_classifier(
                seg_x.shape[1], state.evaluator.n_classes, state.replay
            )
            seg_x = seg_x[last_drift_row + 1 :]
            seg_y = seg_y[last_drift_row + 1 :]
        if seg_y.shape[0]:
            start = time.perf_counter()
            state.classifier.partial_fit_batch(seg_x, seg_y)
            state.classifier_time += time.perf_counter() - start
            _extend_replay(state.replay, seg_x, seg_y)
        return -1

    # ------------------------------------------------------------ internals
    def _step_one(
        self,
        x: np.ndarray,
        y_true: int,
        position: int,
        detector: DriftDetector | None,
        state: "_RunState",
    ) -> None:
        """One test-then-train step of the scalar instance loop."""
        state.replay.append((x, y_true))

        if position < self._pretrain_size:
            start = time.perf_counter()
            state.classifier.partial_fit(x, y_true)
            state.classifier_time += time.perf_counter() - start
            state.warm_x.append(x)
            state.warm_y.append(y_true)
            return
        if position == self._pretrain_size:
            _warm_start(detector, state)

        # ---- test
        start = time.perf_counter()
        scores = state.classifier.predict_proba(x)
        y_pred = int(np.argmax(scores))
        state.classifier_time += time.perf_counter() - start
        state.evaluator.update(scores, y_true, y_pred)

        # ---- detect
        if detector is not None:
            start = time.perf_counter()
            drifted = detector.step(x, y_true, y_pred)
            state.detector_time += time.perf_counter() - start
            if drifted:
                state.detections.append(position)
                state.detected_classes.append(set(detector.drifted_classes or set()))
                state.classifier = self._rebuild_classifier(
                    x.shape[0], state.evaluator.n_classes, state.replay
                )

        # ---- train
        start = time.perf_counter()
        state.classifier.partial_fit(x, y_true)
        state.classifier_time += time.perf_counter() - start

    @staticmethod
    def _describe(detector: DriftDetector | None) -> str:
        if detector is None:
            return "none"
        return type(detector).__name__

    def _rebuild_classifier(
        self, n_features: int, n_classes: int, replay: _Replay
    ) -> StreamClassifier:
        """Build a fresh classifier and replay the recent buffer into it.

        The replay runs through the chunk-exact kernel with its scores
        dropped, which leaves the state a ``partial_fit`` per row would.
        """
        classifier = self._classifier_factory(n_features, n_classes)
        if replay:
            rows, labels = zip(*replay)
            classifier.predict_fit_interleaved(
                np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)
            )
        return classifier


def _warm_start(detector: DriftDetector | None, state: "_RunState") -> None:
    """Warm the detector up on the pretrain rows, once.

    Every mode calls this right before its first post-pretrain row, so a run
    without pretrain rows, or one that ends at the pretrain boundary, never
    warm-starts.  ``np.hstack`` flattens both layouts of ``warm_y``.
    """
    if detector is None or state.warm_started or not state.warm_x:
        return
    start = time.perf_counter()
    detector.warm_start(np.vstack(state.warm_x), np.hstack(state.warm_y))
    state.detector_time += time.perf_counter() - start
    state.warm_started = True


def _require_snapshotable(purpose: str, role: str, part: object) -> None:
    """Refuse ``part`` up front unless it implements the snapshot contract."""
    if not isinstance(part, Snapshotable):
        raise TypeError(
            f"{purpose} requires a Snapshotable {role}; "
            f"{type(part).__name__} does not implement the "
            "snapshot contract (repro.core.snapshot)"
        )


@dataclass
class _RunState:
    """Mutable accumulators shared by the instance loop and the chunk driver.

    ``warm_x``/``warm_y`` hold the pretrain rows, one row per entry in the
    instance loop and one chunk slice per entry in the chunk driver.
    """

    classifier: StreamClassifier
    evaluator: PrequentialEvaluator
    replay: _Replay
    detections: list[int] = field(default_factory=list)
    detected_classes: list[set[int]] = field(default_factory=list)
    detector_time: float = 0.0
    classifier_time: float = 0.0
    warm_x: list[np.ndarray] = field(default_factory=list)
    warm_y: list = field(default_factory=list)
    warm_started: bool = False


class _Checkpointer:
    """Owns one checkpoint file for one run: resume on entry, periodic saves.

    Saves happen only at the instance boundaries the execution modes already
    stop at (chunk boundaries in the chunked modes), so a resumed run
    re-enters its loop exactly where the uninterrupted run would have been —
    which, together with chunk-exact stepping and lossless component
    snapshots, is what makes resume bit-identical.
    """

    def __init__(
        self,
        path: Path,
        every: int,
        meta: dict,
        data_stream: DataStream,
        detector: DriftDetector | None,
    ) -> None:
        if every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self._path = path
        self._every = every
        self._meta = meta
        self._stream = data_stream
        self._detector = detector
        self._saved_at = 0

    def resume(self, state: _RunState) -> int:
        """Apply a matching persisted checkpoint; returns the start position."""
        checkpoint = RunnerCheckpoint.load(self._path)
        if checkpoint is None or not checkpoint.matches(
            self._meta, self._stream, self._detector, state
        ):
            return 0
        produced = checkpoint.apply(self._stream, self._detector, state)
        self._saved_at = produced
        return produced

    def maybe_save(self, produced: int, state: _RunState) -> None:
        """Persist a cut if at least ``every`` instances passed since the last."""
        if produced - self._saved_at < self._every:
            return
        RunnerCheckpoint.capture(
            self._meta, produced, self._stream, self._detector, state
        ).save(self._path)
        self._saved_at = produced
