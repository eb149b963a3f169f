"""Per-layer spans for the benchmark's traced runs.

The tracer times the public calls into each layer of the program from the
benchmark's own files; no program source changes.  Rules the hooks follow:

* methods are wrapped on the **class** and put back exactly afterwards
  (:meth:`Tracer.uninstall`).  An instance-level wrapper would land in the
  instance ``__dict__``, which ``snapshot()`` then refuses to encode, and a
  proxy object would fail ``isinstance(detector, Snapshotable)`` and send
  rollback down another path;
* only calls made once per chunk, unit or drift are timed.  Per-row calls
  (the tree's ``predict_proba``/``partial_fit`` inside its interleaved loop)
  are only counted: timing them would cost more than the work they do;
* a span's *self time* is its duration minus the spans it caused; a call
  that re-enters a key already open (a nested ``snapshot()``, a subclass
  delegating to its base) is folded into the open span.

Every self time is reported under the span key plus ``_s``, so the self times
of one traced pass add up to its wall time.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

#: Attribute set on every wrapper, so a test can prove none is left behind.
MARK = "_perfbench_span"

_ABSENT = object()

#: Self-time span keys (each reported as ``<key>_s``).
SPAN_KEYS = (
    "protocol.run_self",
    "protocol.cell_overhead",
    "protocol.store_put",
    "protocol.status",
    "protocol.report",
    "evaluation.runner_self",
    "streams.generate_batch",
    "classifiers.predict_fit_interleaved",
    "classifiers.predict_proba_batch",
    "classifiers.partial_fit_batch",
    "classifiers.rebuild",
    "detectors.warm_start",
    "snapshot.capture",
    "snapshot.restore",
    "checkpoint.capture",
    "checkpoint.save",
    "metrics.update_batch",
)

#: Counters kept at the same boundaries.
COUNT_KEYS = (
    "streams.rows",
    "classifiers.rebuilds",
    "classifiers.replayed_rows",
    "detectors.step_batch_rows",
    "detectors.drifts",
    "snapshot.captures",
    "evaluation.rollbacks",
    "evaluation.detector_runs",
    "evaluation.detector_run_rows",
    "checkpoint.saves",
    "checkpoint.bytes",
    "protocol.store_puts",
    "classifiers.partial_fit_calls",
    "classifiers.predict_proba_calls",
)


def layer_metric_names(detector_names) -> list:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = ["setup.import_s"]
    names += [key + "_s" for key in SPAN_KEYS]
    names += [f"detectors.{name}.step_batch_s" for name in detector_names]
    names += list(COUNT_KEYS)
    names += [f"detectors.{name}.rollbacks" for name in detector_names]
    names += [
        "detectors.wstd_memo_entries_start",
        "detectors.wstd_memo_entries",
        "evaluation.useful_row_ratio",
        "trace.accounted_share",
        "trace.overhead_s",
    ]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "checkpoint.bytes":
        return "bytes"
    return "count"


class Tracer:
    """Self time per span key plus counters, kept in memory."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # open spans: [key, seconds spent in child spans]
        self._patches = []  # (cls, name, own attribute before patching)

    # ------------------------------------------------------------- spans
    def span(self, key, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` as span ``key``; returns its result."""
        return self._run(key, fn, args, kwargs)[0]

    def _run(self, key, fn, args, kwargs):
        stack = self._stack
        for frame in stack:
            if frame[0] == key:
                return fn(*args, **kwargs), False
        frame = [key, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_s[key] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
        return result, True

    # ----------------------------------------------------------- patching
    def install(self, targets) -> None:
        """Wrap every ``(cls, name, key, after)`` target on its class.

        ``key`` is a span key or a function of the receiver giving one;
        ``after(receiver, args, kwargs, result)`` updates counters once per
        span actually opened.  A ``None`` key marks a per-row call that is
        counted, not timed: ``after`` is then the counter's name.  All
        originals are resolved before anything is patched, so a subclass
        never wraps its base class's wrapper.
        """
        seen = set()
        resolved = []
        for cls, name, key, after in targets:
            if (cls, name) not in seen:
                seen.add((cls, name))
                resolved.append((cls, name, key, after, inspect.getattr_static(cls, name)))
        for cls, name, key, after, attr in resolved:
            self._patches.append((cls, name, cls.__dict__.get(name, _ABSENT)))
            setattr(cls, name, self._wrap(attr, key, after))

    def uninstall(self) -> None:
        """Put back every patched attribute exactly as it was."""
        while self._patches:
            cls, name, original = self._patches.pop()
            if original is _ABSENT:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    def _wrap(self, attr, key, after):
        is_classmethod = isinstance(attr, classmethod)
        func = attr.__func__ if is_classmethod else attr
        run = self._run
        counts = self.counts

        if key is None:

            @functools.wraps(func)
            def wrapper(receiver, *args, **kwargs):
                counts[after] += 1
                return func(receiver, *args, **kwargs)

        else:

            @functools.wraps(func)
            def wrapper(receiver, *args, **kwargs):
                span_key = key(receiver) if callable(key) else key
                result, opened = run(span_key, func, (receiver,) + args, kwargs)
                if opened and after is not None:
                    after(receiver, args, kwargs, result)
                return result

        setattr(wrapper, MARK, True)
        return classmethod(wrapper) if is_classmethod else wrapper


def program_targets(tracer: Tracer) -> list:
    """The layer boundaries of the program, as :meth:`Tracer.install` targets."""
    from repro.classifiers.naive_bayes import GaussianNaiveBayes
    from repro.core.snapshot import Snapshotable
    from repro.detectors.base import DriftDetector
    from repro.evaluation.checkpoint import RunnerCheckpoint
    from repro.evaluation.experiment import default_classifier_factory
    from repro.evaluation.grid import CellTask
    from repro.evaluation.prequential import PrequentialRunner
    from repro.metrics.prequential import PrequentialEvaluator
    from repro.protocol.pipeline import ProtocolPipeline
    from repro.protocol.registry import DETECTOR_NAMES, build_detector
    from repro.protocol.sharded_store import ShardedResultsStore
    from repro.protocol.store import ResultsStore
    from repro.streams.base import DataStream

    counts = tracer.counts
    detector_name = {
        type(build_detector(name, 4, 3)): name
        for name in DETECTOR_NAMES
        if name != "none"
    }

    def name_of(detector) -> str:
        return detector_name.get(type(detector), type(detector).__name__)

    def step_batch_key(detector) -> str:
        return f"detectors.{name_of(detector)}.step_batch"

    def counted(name):
        def after(receiver, args, kwargs, result):
            counts[name] += 1

        return after

    def after_generate(stream, args, kwargs, result):
        counts["streams.rows"] += int(result[1].shape[0])

    def after_step_batch(detector, args, kwargs, result):
        counts["detectors.step_batch_rows"] += int(result.shape[0])
        counts["detectors.drifts"] += int(result.sum())

    def after_rebuild(runner, args, kwargs, result):
        counts["classifiers.rebuilds"] += 1
        counts["classifiers.replayed_rows"] += len(args[2])

    def after_restore(obj, args, kwargs, result):
        if isinstance(obj, DriftDetector):
            counts["evaluation.rollbacks"] += 1
            counts[f"detectors.{name_of(obj)}.rollbacks"] += 1

    def after_run(runner, args, kwargs, result):
        detector = args[1] if len(args) > 1 else kwargs.get("detector")
        if detector is not None:
            counts["evaluation.detector_runs"] += 1
            counts["evaluation.detector_run_rows"] += int(result.n_instances)

    def after_save(checkpoint, args, kwargs, result):
        counts["checkpoint.saves"] += 1
        counts["checkpoint.bytes"] += os.path.getsize(args[0])

    targets = [
        (ProtocolPipeline, "run", "protocol.run_self", None),
        (ProtocolPipeline, "status", "protocol.status", None),
        (ProtocolPipeline, "table", "protocol.report", None),
        (CellTask, "execute", "protocol.cell_overhead", None),
        (ResultsStore, "put", "protocol.store_put", counted("protocol.store_puts")),
        (ShardedResultsStore, "put", "protocol.store_put", counted("protocol.store_puts")),
        (PrequentialRunner, "run", "evaluation.runner_self", after_run),
        (PrequentialRunner, "_rebuild_classifier", "classifiers.rebuild", after_rebuild),
        (DataStream, "generate_batch", "streams.generate_batch", after_generate),
        (Snapshotable, "snapshot", "snapshot.capture", counted("snapshot.captures")),
        (Snapshotable, "restore", "snapshot.restore", after_restore),
        (RunnerCheckpoint, "capture", "checkpoint.capture", None),
        (RunnerCheckpoint, "save", "checkpoint.save", after_save),
        (PrequentialEvaluator, "update_batch", "metrics.update_batch", None),
    ]
    for cls in (type(default_classifier_factory(4, 3)), GaussianNaiveBayes):
        for method in ("predict_fit_interleaved", "predict_proba_batch", "partial_fit_batch"):
            targets.append((cls, method, f"classifiers.{method}", None))
        for method in ("partial_fit", "predict_proba"):
            targets.append((cls, method, None, f"classifiers.{method}_calls"))
    for cls in detector_name:
        targets.append((cls, "step_batch", step_batch_key, after_step_batch))
        targets.append((cls, "warm_start", "detectors.warm_start", None))
    return targets


def layer_metrics(tracer: Tracer, wall_s: float, pretrain: int, extra: dict) -> dict:
    """Every per-layer metric of one traced pass except ``trace.overhead_s``."""
    from repro.protocol.registry import DETECTOR_NAMES

    names = layer_metric_names([n for n in DETECTOR_NAMES if n != "none"])
    values = dict.fromkeys(names, 0)
    values.pop("trace.overhead_s")
    for key, seconds in tracer.self_s.items():
        values[key + "_s"] = seconds
    values.update(tracer.counts)
    values.update(extra)
    useful = values["evaluation.detector_run_rows"] - pretrain * values["evaluation.detector_runs"]
    stepped = values["detectors.step_batch_rows"]
    values["evaluation.useful_row_ratio"] = useful / stepped if stepped else 0.0
    values["trace.accounted_share"] = sum(tracer.self_s.values()) / wall_s
    return values
