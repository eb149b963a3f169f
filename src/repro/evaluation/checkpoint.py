"""Mid-run checkpoints for the prequential runner.

A :class:`RunnerCheckpoint` bundles everything a
:class:`~repro.evaluation.prequential.PrequentialRunner` run accumulates —
the stream's generator state, the live classifier, the detector, the
prequential evaluator, and the loop bookkeeping (replay buffer, detections,
warm-up rows, component timings) — into one strict-JSON payload built on the
:mod:`repro.core.snapshot` contract.  Because every component's snapshot is
bit-lossless and the runner's chunked modes are chunk-exact, a run resumed
from a checkpoint produces results bit-identical to the uninterrupted run.

Checkpoints are written atomically (:func:`repro.core.durability.atomic_write_text`)
so a SIGKILL mid-save leaves the previous checkpoint intact, and loaded
tolerantly: a missing, torn, or foreign file simply means "start from the
beginning", never an error.  A checkpoint additionally binds to its run
configuration through a ``meta`` dict (stream/detector identity, execution
mode, runner parameters); a checkpoint whose binding does not match the
requesting run is ignored rather than misapplied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.durability import atomic_write_text
from repro.core.jsonio import dumps_strict
from repro.core.snapshot import decode_state, encode_state, snapshot_matches

__all__ = ["RunnerCheckpoint", "CHECKPOINT_KIND", "CHECKPOINT_VERSION"]

CHECKPOINT_KIND = "RunnerCheckpoint"

#: Bumped whenever the payload layout changes; loads require an exact match
#: (same no-migrations policy as :class:`~repro.core.snapshot.Snapshotable`).
CHECKPOINT_VERSION = 1


@dataclass
class RunnerCheckpoint:
    """One resumable cut of a prequential run at an instance boundary.

    Attributes
    ----------
    meta:
        Run-binding parameters (stream/detector identity, execution mode,
        runner configuration).  A checkpoint only applies to a run whose
        meta is equal.
    produced:
        Number of instances fully processed when the cut was taken.
    stream, classifier, evaluator, detector:
        Component snapshots (``detector`` is ``None`` for baseline runs).
    progress:
        Encoded loop bookkeeping: replay buffer, detections, blamed
        classes, warm-up rows, and component timings.
    """

    meta: dict
    produced: int
    stream: dict
    classifier: dict
    evaluator: dict
    detector: "dict | None"
    progress: dict

    # -------------------------------------------------------------- capture
    @classmethod
    def capture(cls, meta: dict, produced: int, data_stream, detector, state):
        """Snapshot a run (see ``_RunState`` in the runner) at ``produced``."""
        progress = encode_state(
            {
                "replay": state.replay,
                "detections": state.detections,
                "detected_classes": state.detected_classes,
                "detector_time": state.detector_time,
                "classifier_time": state.classifier_time,
                "warm_x": state.warm_x,
                "warm_y": state.warm_y,
                "warm_started": state.warm_started,
            }
        )
        return cls(
            meta=dict(meta),
            produced=int(produced),
            stream=data_stream.snapshot(),
            classifier=state.classifier.snapshot(),
            evaluator=state.evaluator.snapshot(),
            detector=None if detector is None else detector.snapshot(),
            progress=progress,
        )

    # --------------------------------------------------------------- resume
    def matches(self, meta: dict, data_stream, detector, state) -> bool:
        """Whether this checkpoint binds to the given run configuration.

        Checked *before* :meth:`apply` mutates anything: the run meta must be
        equal and every component snapshot, down to the Snapshotables nested
        in it, must carry the exact kind/version of the object it would
        restore into.
        """
        if self.meta != dict(meta):
            return False
        if (self.detector is None) != (detector is None):
            return False
        pairs = [
            (self.stream, data_stream),
            (self.classifier, state.classifier),
            (self.evaluator, state.evaluator),
        ]
        if detector is not None:
            pairs.append((self.detector, detector))
        return all(snapshot_matches(snap, type(obj)) for snap, obj in pairs)

    def apply(self, data_stream, detector, state) -> int:
        """Restore every component in place; returns the resume position."""
        data_stream.restore(self.stream)
        state.classifier.restore(self.classifier)
        state.evaluator.restore(self.evaluator)
        if detector is not None:
            detector.restore(self.detector)
        progress = decode_state(self.progress)
        state.replay = progress["replay"]
        state.detections = list(progress["detections"])
        state.detected_classes = list(progress["detected_classes"])
        state.detector_time = float(progress["detector_time"])
        state.classifier_time = float(progress["classifier_time"])
        state.warm_x = list(progress["warm_x"])
        state.warm_y = list(progress["warm_y"])
        state.warm_started = bool(progress["warm_started"])
        return self.produced

    # ---------------------------------------------------------- persistence
    def to_payload(self) -> dict:
        return {
            "kind": CHECKPOINT_KIND,
            "version": CHECKPOINT_VERSION,
            "meta": self.meta,
            "produced": self.produced,
            "stream": self.stream,
            "classifier": self.classifier,
            "evaluator": self.evaluator,
            "detector": self.detector,
            "progress": self.progress,
        }

    @classmethod
    def from_payload(cls, payload) -> "RunnerCheckpoint | None":
        """Rebuild from a parsed payload; anything unusable means ``None``."""
        if not isinstance(payload, dict):
            return None
        if payload.get("kind") != CHECKPOINT_KIND:
            return None
        if payload.get("version") != CHECKPOINT_VERSION:
            return None
        try:
            return cls(
                meta=dict(payload["meta"]),
                produced=int(payload["produced"]),
                stream=payload["stream"],
                classifier=payload["classifier"],
                evaluator=payload["evaluator"],
                detector=payload.get("detector"),
                progress=payload["progress"],
            )
        except (KeyError, TypeError, ValueError):
            return None

    def save(self, path: "str | Path") -> None:
        """Atomically persist: tmp-write + fsync + replace + dir fsync."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(target.parent, target, dumps_strict(self.to_payload()))

    @classmethod
    def load(cls, path: "str | Path") -> "RunnerCheckpoint | None":
        """Parse a persisted checkpoint; missing or corrupt means ``None``."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return cls.from_payload(payload)

