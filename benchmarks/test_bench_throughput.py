"""Throughput benchmark: instance-mode vs batch-mode prequential execution.

Measures instances/second of the full prequential path (stream generation ->
classifier test -> detector step -> classifier train -> windowed metrics) in
the three execution modes of :class:`PrequentialRunner`:

* ``instance`` — the classic one-``Instance``-at-a-time loop (baseline);
* ``chunk-exact`` — bit-identical results at chunk speed: vectorized stream
  fetch, the classifier's ``predict_fit_interleaved`` kernel, the detector's
  chunk-exact ``step_batch``, and batched metric folds;
* ``batch`` — chunk-granular test-then-train over the batch APIs, driving
  every detector's NumPy-native ``step_batch`` kernel.

Five workload families are measured: the RBM-IM reference path of the
earlier baselines, the full *detector zoo* — every detector in the registry
on the same stream/classifier, instance vs batch mode, with the aggregate
speedup across the zoo as the headline number — raw generation
throughput of a *schedule-composed scenario stream* (the
:mod:`repro.streams.schedule` engine driving concept transitions, local
drift, imbalance, label noise, and feature drift at once), batch fetch vs
per-instance iteration — the *fleet engine* (:mod:`repro.fleet`):
detector-steps/sec of each native struct-of-arrays kernel driving 1k+
concurrent independent streams, gated against an absolute floor — and the
*snapshot contract* overhead: a chunk-exact run writing a full
``RunnerCheckpoint`` at every chunk vs without, plus snapshot()/restore()
rates against the rollback deepcopy they replaced.

Run as a pytest harness (``PYTHONPATH=src python -m pytest
benchmarks/test_bench_throughput.py``) for a scaled-down regression check, as
a script (``PYTHONPATH=src python benchmarks/test_bench_throughput.py``) to
record the full measurement into ``BENCH_throughput.json`` at the repository
root — the perf trajectory future changes are compared against — or with
``--smoke`` (used by CI) for a seconds-long run that exercises the whole
harness, gates the RBM-IM batch (>= 15x) and chunk-exact (>= 3x) speedups,
and prints a regression diff against the recorded trajectory without
touching it.  ``--profile`` reruns the slowest measured workload under
cProfile and dumps the pstats breakdown (CI uploads it as an artifact).
"""

from __future__ import annotations

import cProfile
import copy
import functools
import io
import json
import math
import pstats
import tempfile
import time
from pathlib import Path

import numpy as np
from bench_common import stream_length

from repro.classifiers import GaussianNaiveBayes
from repro.core.detector import RBMIM, RBMIMConfig
from repro.core.jsonio import dumps_strict
from repro.evaluation.prequential import PrequentialRunner
from repro.fleet import FLEET_NATIVE, ScalarDetectorFleet, make_fleet
from repro.protocol.registry import DETECTOR_NAMES, build_detector
from repro.streams.generators import RandomRBFGenerator, SEAGenerator
from repro.streams.imbalance import DynamicImbalance
from repro.streams.schedule import Schedule, ScheduledStream, Segment

#: Conservative pytest floor: the recorded baseline shows >= 15x on an idle
#: machine; shared runners are noisy, so the regression gate is looser.
MIN_SPEEDUP = 6.0

#: Pytest floor for the chunk-exact (bit-identical) mode: the recorded
#: baseline shows >= 5x, and anything under 2x means the optimistic chunked
#: runner has regressed towards the scalar loop.
MIN_EXACT_SPEEDUP = 2.0

#: Floor for the aggregate batch-vs-instance speedup across the detector zoo
#: (recorded baseline >= 3x; same noise allowance as above).
MIN_ZOO_AGGREGATE_SPEEDUP = 2.0

#: Hard bench-smoke gates on the RBM-IM reference workloads (best-of-repeats
#: partially compensates for runner noise; the recorded idle-machine numbers
#: sit comfortably above both).
SMOKE_MIN_RBMIM_BATCH_SPEEDUP = 15.0
SMOKE_MIN_EXACT_SPEEDUP = 3.0

#: Floor for batch-vs-instance generation throughput of a schedule-composed
#: scenario stream.  The recorded baseline shows >= 10x, so even on noisy CI
#: runners the batch path must stay at least 5x ahead — below that, the
#: scenario engine's vectorized path has regressed.
MIN_SCHEDULE_STREAM_SPEEDUP = 5.0

#: Floor on what per-chunk crash-resume checkpointing may cost: a chunk-exact
#: RBM-IM run writing a full :class:`RunnerCheckpoint` (stream + classifier +
#: detector + metrics, strict JSON, atomic rename) at *every* 1024-instance
#: chunk — far more often than the default cadence — must keep at least this
#: fraction of the uncheckpointed run's throughput.  The recorded baseline
#: keeps ~0.6x; below 0.3x the snapshot codec or the durability path has
#: regressed into the hot loop.
MIN_CHECKPOINT_RELATIVE_THROUGHPUT = 0.3

#: Floor on the chunk-rollback capture path: ``detector.snapshot()`` on a
#: trained RBM-IM must not fall behind the ``deepcopy(detector.__dict__)``
#: it replaced inside ``_advance_exact_segment`` (recorded baseline ~1.5x —
#: the snapshot skips the excluded CD-k scratch buffers that deepcopy
#: faithfully clones; 0.9 allows for runner noise, not for a regression).
#: The ratio is the median over ``CAPTURE_ROUNDS`` alternating rounds, so
#: load drift on a shared machine hits both sides of a round alike.
MIN_RBMIM_SNAPSHOT_VS_DEEPCOPY = 0.9
CAPTURE_ROUNDS = 10

#: Absolute floor on full snapshot->restore cycles/sec of a trained RBM-IM
#: (recorded baseline >= 1000/s; below 100/s checkpointing a protocol cell
#: would dominate the cell itself).
MIN_RBMIM_SNAPSHOT_CYCLES_PER_SEC = 100.0

#: Hard floor on the fleet engine: the slowest native struct-of-arrays
#: kernel must sustain at least this many detector-steps/sec while driving
#: ``FLEET_N_STREAMS`` concurrent independent streams (the recorded baseline
#: sits well above; anything below means a kernel fell off the one-round
#: vectorized path).
MIN_FLEET_STEPS_PER_SEC = 100_000.0
FLEET_N_STREAMS = 1_000

#: The sum/bound family with native struct-of-arrays fleet kernels.
FLEET_DETECTORS = tuple(FLEET_NATIVE)

#: Every registry detector (the paper's zoo); "none" is the detector-less
#: baseline and measures only classifier/stream overhead.
ZOO_DETECTORS = tuple(name for name in DETECTOR_NAMES if name != "none")

ZOO_STREAM_SHAPE = dict(n_classes=5, n_features=10)

WORKLOADS = {
    "sea3-rbmim": dict(n_classes=3, n_features=3),
    "sea5x20-rbmim": dict(n_classes=5, n_features=20),
}

MODES = {
    "instance": {},
    "chunk-exact": dict(chunk_size=1024),
    "batch": dict(chunk_size=1024, batch_mode=True),
}


def _nb_factory(n_features: int, n_classes: int) -> GaussianNaiveBayes:
    return GaussianNaiveBayes(n_features, n_classes)


def measure_throughput(
    n_classes: int,
    n_features: int,
    n_instances: int,
    repeats: int = 3,
) -> dict[str, float]:
    """Best-of-``repeats`` instances/sec for every execution mode."""
    runners = {
        mode: PrequentialRunner(
            _nb_factory, pretrain_size=200, snapshot_every=2_500, **kwargs
        )
        for mode, kwargs in MODES.items()
    }
    # Modes are interleaved within each repeat (not run back-to-back per
    # mode) so a drift in machine load hits every mode alike instead of
    # biasing the speedup ratios; best-of-repeats then absorbs the noise.
    throughput: dict[str, float] = {mode: 0.0 for mode in MODES}
    for _ in range(repeats):
        for mode, runner in runners.items():
            stream = SEAGenerator(
                n_classes=n_classes, n_features=n_features, seed=1
            )
            detector = RBMIM(
                n_features, n_classes, RBMIMConfig(batch_size=50, seed=11)
            )
            started = time.perf_counter()
            runner.run(stream, detector, n_instances=n_instances)
            elapsed = time.perf_counter() - started
            throughput[mode] = max(throughput[mode], n_instances / elapsed)
    return throughput


def measure_detector_zoo(
    n_instances: int,
    repeats: int = 2,
    detectors: tuple[str, ...] = ZOO_DETECTORS,
) -> dict:
    """Instance vs batch throughput of every registry detector.

    Each detector runs the full prequential path (SEA stream, Gaussian NB)
    once per mode and repeat; reported per-detector numbers are
    best-of-``repeats``, and the aggregate speedup divides total instances
    processed by total wall time per mode (so slow detectors dominate, as
    they do in the real protocol grid).
    """
    n_classes = ZOO_STREAM_SHAPE["n_classes"]
    n_features = ZOO_STREAM_SHAPE["n_features"]
    per_detector: dict[str, dict] = {}
    total_time = {"instance": 0.0, "chunk-exact": 0.0, "batch": 0.0}
    runners = {
        mode: PrequentialRunner(
            _nb_factory, pretrain_size=200, snapshot_every=10**9, **kwargs
        )
        for mode, kwargs in MODES.items()
    }
    for name in detectors:
        # Interleave modes within each repeat (see measure_throughput): load
        # drifts then bias every mode alike rather than one ratio.
        best_time = {mode: math.inf for mode in runners}
        for _ in range(repeats):
            for mode, runner in runners.items():
                stream = SEAGenerator(seed=1, **ZOO_STREAM_SHAPE)
                detector = build_detector(name, n_features, n_classes)
                started = time.perf_counter()
                runner.run(stream, detector, n_instances=n_instances)
                best_time[mode] = min(
                    best_time[mode], time.perf_counter() - started
                )
        throughput = {mode: n_instances / best_time[mode] for mode in runners}
        for mode in runners:
            total_time[mode] += best_time[mode]
        per_detector[name] = {
            "instances_per_sec": {
                mode: round(value, 1) for mode, value in throughput.items()
            },
            "speedup_batch_vs_instance": round(
                throughput["batch"] / throughput["instance"], 2
            ),
            "speedup_exact_vs_instance": round(
                throughput["chunk-exact"] / throughput["instance"], 2
            ),
        }
    return {
        "description": (
            "Instance-mode vs chunk-exact vs batch-mode prequential "
            "throughput of every registry detector (SEA stream, Gaussian NB "
            "classifier); best-of-N per detector, aggregate = total "
            "instances / total wall time across the zoo."
        ),
        "n_instances": n_instances,
        "stream": ZOO_STREAM_SHAPE,
        "per_detector": per_detector,
        "aggregate_speedup_batch_vs_instance": round(
            total_time["instance"] / total_time["batch"], 2
        ),
        "aggregate_speedup_exact_vs_instance": round(
            total_time["instance"] / total_time["chunk-exact"], 2
        ),
    }


def _schedule_composed_stream(seed: int = 3) -> ScheduledStream:
    """A scenario stream exercising every axis of the schedule engine."""

    def factory(concept: int) -> RandomRBFGenerator:
        return RandomRBFGenerator(
            n_classes=5, n_features=20, concept=concept, seed=seed
        )

    schedule = Schedule.of(
        Segment(length=5_000, concept=0),
        Segment(length=5_000, concept=1, transition="gradual", width=1_000),
        Segment(length=5_000, concept=2, drifted_classes=(3, 4)),
        Segment(
            length=5_000,
            concept=3,
            label_noise=0.05,
            feature_shift=0.2,
            width=500,
        ),
    )
    return ScheduledStream(
        factory,
        schedule,
        imbalance=DynamicImbalance(5, 2.0, 50.0, period=10_000),
        seed=seed + 1,
    )


def measure_schedule_stream(
    n_instances: int, repeats: int = 2, chunk_size: int = 1_024
) -> dict:
    """Generation throughput of the schedule engine: batch vs instance mode."""
    best_time = {"instance": math.inf, "batch": math.inf}
    for _ in range(repeats):
        stream = _schedule_composed_stream()
        started = time.perf_counter()
        for _ in range(n_instances):
            stream.next_instance()
        best_time["instance"] = min(
            best_time["instance"], time.perf_counter() - started
        )
        stream = _schedule_composed_stream()
        produced = 0
        started = time.perf_counter()
        while produced < n_instances:
            produced += stream.generate_batch(
                min(chunk_size, n_instances - produced)
            )[1].shape[0]
        best_time["batch"] = min(best_time["batch"], time.perf_counter() - started)
    return {
        "description": (
            "Raw generation throughput of a schedule-composed scenario "
            "stream (4 segments: sudden + gradual + local drift + label "
            "noise/feature drift, dynamic imbalance), batch fetch vs "
            "per-instance iteration; best of N repeats."
        ),
        "n_instances": n_instances,
        "chunk_size": chunk_size,
        "instances_per_sec": {
            mode: round(n_instances / elapsed, 1)
            for mode, elapsed in best_time.items()
        },
        "speedup_batch_vs_instance": round(
            best_time["instance"] / best_time["batch"], 2
        ),
    }


def measure_snapshot_overhead(
    n_instances: int,
    repeats: int = 3,
    chunk_size: int = 1_024,
    capture_seconds: float = 0.5,
) -> dict:
    """Cost of the snapshot contract on the paths that pay for it.

    Two workloads:

    * **checkpointed run** — the chunk-exact RBM-IM reference run with a
      full :class:`RunnerCheckpoint` written at every chunk boundary
      (deliberately the most aggressive cadence) vs the same run without,
      best-of-``repeats`` each, reported as relative throughput;
    * **rollback capture** — ``snapshot()`` / full snapshot->restore cycles
      per second on trained detectors, with the RBM-IM capture also compared
      against the ``deepcopy(detector.__dict__)`` it replaced in the
      chunk-exact rollback path (median ratio over alternating rounds).
    """
    runner = PrequentialRunner(
        _nb_factory, pretrain_size=200, snapshot_every=2_500, chunk_size=chunk_size
    )
    best_time = {"plain": math.inf, "checkpointed": math.inf}
    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = {
            "plain": {},
            "checkpointed": dict(
                checkpoint_path=Path(scratch) / "checkpoint.json",
                checkpoint_every=chunk_size,
            ),
        }
        for _ in range(repeats):
            for mode, kwargs in checkpoint.items():
                # A stale matching checkpoint would turn later repeats into
                # near-empty resumed runs; measure cold starts only.
                Path(scratch, "checkpoint.json").unlink(missing_ok=True)
                stream = SEAGenerator(n_classes=3, n_features=3, seed=1)
                detector = RBMIM(3, 3, RBMIMConfig(batch_size=50, seed=11))
                started = time.perf_counter()
                runner.run(stream, detector, n_instances=n_instances, **kwargs)
                best_time[mode] = min(
                    best_time[mode], time.perf_counter() - started
                )

    def rate(action, seconds: float = capture_seconds) -> float:
        count = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            action()
            count += 1
        return count / (time.perf_counter() - started)

    per_detector: dict[str, dict] = {}
    rng = np.random.default_rng(7)
    features = rng.random((4_000, 10))
    labels = rng.integers(0, 5, 4_000)
    predictions = rng.integers(0, 5, 4_000)
    for name in ("DDM", "ADWIN", "RBM-IM"):
        detector = build_detector(name, 10, 5)
        detector.step_batch(features, labels, predictions)
        entry = {
            "snapshot_per_sec": round(rate(detector.snapshot), 1),
            "snapshot_restore_cycles_per_sec": round(
                rate(lambda: detector.restore(detector.snapshot())), 1
            ),
        }
        if name == "RBM-IM":
            seconds = capture_seconds / CAPTURE_ROUNDS
            clone = functools.partial(copy.deepcopy, detector.__dict__)
            rounds = np.array(
                [
                    (rate(detector.snapshot, seconds), rate(clone, seconds))
                    for _ in range(CAPTURE_ROUNDS)
                ]
            )
            entry["deepcopy_per_sec"] = round(float(np.median(rounds[:, 1])), 1)
            entry["snapshot_vs_deepcopy"] = round(
                float(np.median(rounds[:, 0] / rounds[:, 1])), 2
            )
        per_detector[name] = entry

    return {
        "description": (
            "Snapshot-contract overhead: chunk-exact RBM-IM run with a full "
            "RunnerCheckpoint written at every chunk vs without (relative "
            "throughput, best of N), plus snapshot()/restore() rates on "
            "trained detectors and the RBM-IM capture vs the deepcopy it "
            "replaced in the rollback path (median of alternating rounds)."
        ),
        "n_instances": n_instances,
        "chunk_size": chunk_size,
        "instances_per_sec": {
            mode: round(n_instances / elapsed, 1)
            for mode, elapsed in best_time.items()
        },
        "checkpointed_relative_throughput": round(
            best_time["plain"] / best_time["checkpointed"], 2
        ),
        "per_detector": per_detector,
    }


def measure_fleet(
    n_streams: int = FLEET_N_STREAMS,
    n_ticks: int = 200,
    repeats: int = 3,
    detectors: tuple[str, ...] = FLEET_DETECTORS,
    adapter_ticks: int | None = None,
) -> dict:
    """Detector-steps/sec of the fleet engine across N concurrent streams.

    Every native sum-family kernel steps ``n_streams`` independent detectors
    through ``n_ticks`` dense ticks (one element per lane per tick — the
    single-round fast path of ``step_fleet``) over a drift-prone error
    signal, best-of-``repeats``.  One detector (the first) is also measured
    through the loop-of-scalars :class:`ScalarDetectorFleet` on a tick
    subsample, yielding the native-vs-adapter speedup — the whole point of
    the struct-of-arrays kernels.
    """
    rng = np.random.default_rng(5)
    ids = np.arange(n_streams, dtype=np.int64)
    error_probability = 0.1 + 0.6 * (np.arange(n_ticks) % 100) / 100.0
    values = (
        rng.random((n_ticks, n_streams)) < error_probability[:, None]
    ).astype(np.float64)
    if adapter_ticks is None:
        adapter_ticks = max(1, n_ticks // 20)
    per_detector: dict[str, dict] = {}
    for position, name in enumerate(detectors):
        best = math.inf
        for _ in range(repeats):
            fleet = make_fleet(name, n_streams)
            started = time.perf_counter()
            for tick in range(n_ticks):
                fleet.step_fleet(ids, values[tick])
            best = min(best, time.perf_counter() - started)
        steps_per_sec = n_streams * n_ticks / best
        entry = {"steps_per_sec": round(steps_per_sec, 1)}
        if position == 0:
            adapter = ScalarDetectorFleet(
                [build_detector(name, 2, 2) for _ in range(n_streams)]
            )
            started = time.perf_counter()
            for tick in range(adapter_ticks):
                adapter.step_fleet(ids, values[tick])
            adapter_rate = (
                n_streams * adapter_ticks / (time.perf_counter() - started)
            )
            entry["adapter_steps_per_sec"] = round(adapter_rate, 1)
            entry["speedup_native_vs_adapter"] = round(
                steps_per_sec / adapter_rate, 2
            )
        per_detector[name] = entry
    return {
        "description": (
            "Fleet engine: detector-steps/sec of each native "
            "struct-of-arrays kernel driving N concurrent independent "
            "streams (dense ticks, one element per lane), best of N "
            "repeats; the first detector also measured through the "
            "loop-of-scalars adapter for the native-vs-adapter speedup."
        ),
        "n_streams": n_streams,
        "n_ticks": n_ticks,
        "per_detector": per_detector,
        "min_steps_per_sec": min(
            entry["steps_per_sec"] for entry in per_detector.values()
        ),
    }


def run_benchmark(n_instances: int, repeats: int = 3) -> dict:
    results: dict = {
        "description": (
            "Instances/sec of the RBM-IM prequential path (SEA stream, "
            "Gaussian NB classifier, RBM-IM detector) per execution mode; "
            "best of N repeats."
        ),
        "n_instances": n_instances,
        "workloads": {},
    }
    for name, shape in WORKLOADS.items():
        throughput = measure_throughput(
            n_instances=n_instances, repeats=repeats, **shape
        )
        results["workloads"][name] = {
            **shape,
            "instances_per_sec": {
                mode: round(value, 1) for mode, value in throughput.items()
            },
            "speedup_batch_vs_instance": round(
                throughput["batch"] / throughput["instance"], 2
            ),
            "speedup_exact_vs_instance": round(
                throughput["chunk-exact"] / throughput["instance"], 2
            ),
        }
    return results


class TestThroughput:
    def test_batch_mode_speedup(self):
        n_instances = stream_length(12_000, 30_000)
        throughput = measure_throughput(
            n_classes=3, n_features=3, n_instances=n_instances, repeats=2
        )
        speedup = throughput["batch"] / throughput["instance"]
        assert speedup >= MIN_SPEEDUP, (
            f"batch mode only {speedup:.2f}x faster than instance mode "
            f"(floor {MIN_SPEEDUP}x; recorded baseline in "
            "BENCH_throughput.json shows >= 15x)"
        )

    def test_exact_mode_speedup(self):
        n_instances = stream_length(8_000, 20_000)
        throughput = measure_throughput(
            n_classes=3, n_features=3, n_instances=n_instances, repeats=2
        )
        # Chunk-exact mode is bit-identical to the instance loop but must
        # deliver a real speedup, not just remove stream overhead.
        speedup = throughput["chunk-exact"] / throughput["instance"]
        assert speedup >= MIN_EXACT_SPEEDUP, (
            f"chunk-exact mode only {speedup:.2f}x faster than instance "
            f"mode (floor {MIN_EXACT_SPEEDUP}x; recorded baseline in "
            "BENCH_throughput.json shows >= 5x)"
        )


class TestDetectorZoo:
    def test_zoo_kernels_beat_instance_mode(self):
        # Best-of-2 per mode: a single repeat is too sensitive to scheduler
        # noise for a gate (one unlucky instance-mode run skews the aggregate).
        n_instances = stream_length(4_000, 20_000)
        results = measure_detector_zoo(n_instances=n_instances, repeats=2)
        assert set(results["per_detector"]) == set(ZOO_DETECTORS)
        aggregate = results["aggregate_speedup_batch_vs_instance"]
        assert aggregate >= MIN_ZOO_AGGREGATE_SPEEDUP, (
            f"detector-zoo batch path only {aggregate:.2f}x faster than "
            f"instance mode (floor {MIN_ZOO_AGGREGATE_SPEEDUP}x; recorded "
            "baseline in BENCH_throughput.json shows >= 3x)"
        )


class TestSnapshotOverhead:
    def test_checkpointing_keeps_most_of_the_throughput(self):
        n_instances = stream_length(8_000, 20_000)
        results = measure_snapshot_overhead(n_instances=n_instances, repeats=2)
        relative = results["checkpointed_relative_throughput"]
        assert relative >= MIN_CHECKPOINT_RELATIVE_THROUGHPUT, (
            f"per-chunk checkpointing keeps only {relative:.2f}x of the "
            f"uncheckpointed throughput (floor "
            f"{MIN_CHECKPOINT_RELATIVE_THROUGHPUT}x; recorded baseline in "
            "BENCH_throughput.json keeps ~0.6x)"
        )
        rbmim = results["per_detector"]["RBM-IM"]
        cycles = rbmim["snapshot_restore_cycles_per_sec"]
        assert cycles >= MIN_RBMIM_SNAPSHOT_CYCLES_PER_SEC, (
            f"trained RBM-IM manages only {cycles:,.0f} snapshot->restore "
            f"cycles/sec (floor {MIN_RBMIM_SNAPSHOT_CYCLES_PER_SEC:,.0f})"
        )
        ratio = rbmim["snapshot_vs_deepcopy"]
        assert ratio >= MIN_RBMIM_SNAPSHOT_VS_DEEPCOPY, (
            f"RBM-IM snapshot() capture fell to {ratio:.2f}x of the deepcopy "
            f"it replaced in the chunk-rollback path (floor "
            f"{MIN_RBMIM_SNAPSHOT_VS_DEEPCOPY}x)"
        )


class TestFleet:
    def test_fleet_holds_steps_per_sec_floor(self):
        n_ticks = stream_length(100, 500)
        results = measure_fleet(
            n_streams=FLEET_N_STREAMS, n_ticks=n_ticks, repeats=2
        )
        slowest = results["min_steps_per_sec"]
        assert slowest >= MIN_FLEET_STEPS_PER_SEC, (
            f"slowest native fleet kernel only {slowest:,.0f} "
            f"detector-steps/sec across {FLEET_N_STREAMS} streams "
            f"(floor {MIN_FLEET_STEPS_PER_SEC:,.0f}; recorded baseline in "
            "BENCH_throughput.json)"
        )

    def test_fleet_covers_the_native_family(self):
        results = measure_fleet(n_streams=64, n_ticks=10, repeats=1)
        assert set(results["per_detector"]) == set(FLEET_DETECTORS)


class TestScheduleStream:
    def test_schedule_stream_batch_generation_speedup(self):
        n_instances = stream_length(6_000, 20_000)
        results = measure_schedule_stream(n_instances=n_instances, repeats=2)
        speedup = results["speedup_batch_vs_instance"]
        assert speedup >= MIN_SCHEDULE_STREAM_SPEEDUP, (
            f"schedule-composed stream batch generation only {speedup:.2f}x "
            f"faster than instance mode (floor "
            f"{MIN_SCHEDULE_STREAM_SPEEDUP}x; recorded baseline shows >= 10x)"
        )


_RECORDED_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def print_regression_diff(current: dict) -> None:
    """Print current headline speedups next to the recorded trajectory.

    Informational only (smoke streams are far shorter than the recorded
    measurement, so absolute throughput is not comparable — the *ratios*
    are): a quick way to spot a mode regressing relative to the committed
    BENCH_throughput.json without rerunning the full benchmark.
    """
    if not _RECORDED_PATH.exists():
        print("\nno recorded BENCH_throughput.json; skipping regression diff")
        return
    recorded = json.loads(_RECORDED_PATH.read_text(encoding="utf-8"))

    def row(label: str, old: float | None, new: float | None) -> None:
        if old is None or new is None:
            return
        delta = (new - old) / old * 100.0
        print(f"  {label:<45s} recorded {old:7.2f}x  current {new:7.2f}x  ({delta:+.0f}%)")

    print("\nregression diff vs recorded BENCH_throughput.json (speedups):")
    for name, workload in current.get("workloads", {}).items():
        old = recorded.get("workloads", {}).get(name, {})
        for key in ("speedup_batch_vs_instance", "speedup_exact_vs_instance"):
            row(f"{name}.{key}", old.get(key), workload.get(key))
    for key in (
        "aggregate_speedup_batch_vs_instance",
        "aggregate_speedup_exact_vs_instance",
    ):
        row(
            f"detector_zoo.{key}",
            recorded.get("detector_zoo", {}).get(key),
            current.get("detector_zoo", {}).get(key),
        )
    row(
        "schedule_stream.speedup_batch_vs_instance",
        recorded.get("schedule_stream", {}).get("speedup_batch_vs_instance"),
        current.get("schedule_stream", {}).get("speedup_batch_vs_instance"),
    )
    row(
        "snapshot_overhead.checkpointed_relative_throughput",
        recorded.get("snapshot_overhead", {}).get(
            "checkpointed_relative_throughput"
        ),
        current.get("snapshot_overhead", {}).get(
            "checkpointed_relative_throughput"
        ),
    )
    # Fleet throughput is absolute (steps/sec), not a ratio; compare the
    # slowest-kernel floor in millions of steps/sec.
    old_fleet = recorded.get("fleet", {}).get("min_steps_per_sec")
    new_fleet = current.get("fleet", {}).get("min_steps_per_sec")
    if old_fleet and new_fleet:
        row(
            "fleet.min_steps_per_sec (M/s)",
            old_fleet / 1e6,
            new_fleet / 1e6,
        )


def profile_slowest_workload(n_instances: int = 10_000) -> Path:
    """Profile the slowest (workload, mode) pair and dump the pstats report.

    A quick unprofiled sweep over every RBM-IM workload/mode pair finds the
    lowest-throughput combination; that run is repeated under cProfile and
    the cumulative-time breakdown is written to ``bench_profile.txt`` next to
    ``BENCH_throughput.json`` (CI uploads it as an artifact).
    """
    slowest: tuple[float, str, str] | None = None
    for name, shape in WORKLOADS.items():
        throughput = measure_throughput(
            n_instances=n_instances, repeats=1, **shape
        )
        for mode, value in throughput.items():
            if slowest is None or value < slowest[0]:
                slowest = (value, name, mode)
    assert slowest is not None
    _, name, mode = slowest
    shape = WORKLOADS[name]
    runner = PrequentialRunner(
        _nb_factory, pretrain_size=200, snapshot_every=2_500, **MODES[mode]
    )
    stream = SEAGenerator(seed=1, **shape)
    detector = RBMIM(
        shape["n_features"], shape["n_classes"], RBMIMConfig(batch_size=50, seed=11)
    )
    profiler = cProfile.Profile()
    profiler.enable()
    runner.run(stream, detector, n_instances=n_instances)
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(40)
    stats.sort_stats("tottime").print_stats(25)
    report = (
        f"slowest workload: {name} in {mode} mode "
        f"({slowest[0]:.1f} instances/sec over {n_instances} instances)\n\n"
        + buffer.getvalue()
    )
    out_path = _RECORDED_PATH.parent / "bench_profile.txt"
    out_path.write_text(report, encoding="utf-8")
    print(report)
    print(f"profile -> {out_path}")
    return out_path


def main(smoke: bool = False, profile: bool = False) -> None:
    if profile:
        profile_slowest_workload()
        return
    if smoke:
        # CI harness check: tiny streams, full detector zoo, no recording.
        results = measure_detector_zoo(n_instances=1_500, repeats=1)
        print(dumps_strict(results, indent=2))
        missing = set(ZOO_DETECTORS) - set(results["per_detector"])
        if missing:
            raise SystemExit(f"zoo benchmark skipped detectors: {sorted(missing)}")
        # Schedule-composed scenario stream: the batch path must hold the 5x
        # floor over instance mode or the scenario engine has regressed.
        schedule_results = measure_schedule_stream(n_instances=6_000, repeats=2)
        print(dumps_strict(schedule_results, indent=2))
        speedup = schedule_results["speedup_batch_vs_instance"]
        if speedup < MIN_SCHEDULE_STREAM_SPEEDUP:
            raise SystemExit(
                f"schedule-composed stream batch generation only "
                f"{speedup:.2f}x faster than instance mode "
                f"(floor {MIN_SCHEDULE_STREAM_SPEEDUP}x)"
            )
        # Fleet engine: the slowest native struct-of-arrays kernel must hold
        # the absolute detector-steps/sec floor across >= 1k streams.
        fleet_results = measure_fleet(
            n_streams=FLEET_N_STREAMS, n_ticks=100, repeats=2
        )
        print(dumps_strict(fleet_results, indent=2))
        fleet_floor = fleet_results["min_steps_per_sec"]
        if fleet_floor < MIN_FLEET_STEPS_PER_SEC:
            raise SystemExit(
                f"slowest native fleet kernel only {fleet_floor:,.0f} "
                f"detector-steps/sec across {FLEET_N_STREAMS} streams "
                f"(floor {MIN_FLEET_STEPS_PER_SEC:,.0f})"
            )
        # Snapshot contract: per-chunk checkpointing must not eat the chunked
        # runner's speedup, and the rollback capture must stay at least as
        # cheap as the deepcopy it replaced.
        snapshot_results = measure_snapshot_overhead(n_instances=10_000, repeats=2)
        print(dumps_strict(snapshot_results, indent=2))
        relative = snapshot_results["checkpointed_relative_throughput"]
        if relative < MIN_CHECKPOINT_RELATIVE_THROUGHPUT:
            raise SystemExit(
                f"per-chunk checkpointing keeps only {relative:.2f}x of the "
                f"uncheckpointed throughput "
                f"(floor {MIN_CHECKPOINT_RELATIVE_THROUGHPUT}x)"
            )
        snapshot_rbmim = snapshot_results["per_detector"]["RBM-IM"]
        if (
            snapshot_rbmim["snapshot_restore_cycles_per_sec"]
            < MIN_RBMIM_SNAPSHOT_CYCLES_PER_SEC
        ):
            raise SystemExit(
                f"trained RBM-IM manages only "
                f"{snapshot_rbmim['snapshot_restore_cycles_per_sec']:,.0f} "
                f"snapshot->restore cycles/sec "
                f"(floor {MIN_RBMIM_SNAPSHOT_CYCLES_PER_SEC:,.0f})"
            )
        if snapshot_rbmim["snapshot_vs_deepcopy"] < MIN_RBMIM_SNAPSHOT_VS_DEEPCOPY:
            raise SystemExit(
                f"RBM-IM snapshot() capture fell to "
                f"{snapshot_rbmim['snapshot_vs_deepcopy']:.2f}x of the "
                f"deepcopy it replaced "
                f"(floor {MIN_RBMIM_SNAPSHOT_VS_DEEPCOPY}x)"
            )
        # RBM-IM reference workloads: hard floors on the batched CD-k path
        # and the dispatch-free chunk-exact runner.
        rbmim_results = run_benchmark(n_instances=15_000, repeats=3)
        print(dumps_strict(rbmim_results, indent=2))
        for name, workload in rbmim_results["workloads"].items():
            batch_speedup = workload["speedup_batch_vs_instance"]
            exact_speedup = workload["speedup_exact_vs_instance"]
            if batch_speedup < SMOKE_MIN_RBMIM_BATCH_SPEEDUP:
                raise SystemExit(
                    f"{name}: batch mode only {batch_speedup:.2f}x faster "
                    f"than instance mode "
                    f"(floor {SMOKE_MIN_RBMIM_BATCH_SPEEDUP}x)"
                )
            if exact_speedup < SMOKE_MIN_EXACT_SPEEDUP:
                raise SystemExit(
                    f"{name}: chunk-exact mode only {exact_speedup:.2f}x "
                    f"faster than instance mode "
                    f"(floor {SMOKE_MIN_EXACT_SPEEDUP}x)"
                )
        print_regression_diff(
            {
                **rbmim_results,
                "detector_zoo": results,
                "schedule_stream": schedule_results,
                "fleet": fleet_results,
                "snapshot_overhead": snapshot_results,
            }
        )
        print(
            "\nsmoke OK: all detectors measured in all modes; "
            f"schedule stream batch {speedup:.1f}x instance mode; "
            f"fleet floor {fleet_floor / 1e6:.1f}M steps/sec across "
            f"{FLEET_N_STREAMS} streams; "
            f"per-chunk checkpointing keeps {relative:.2f}x throughput; "
            "RBM-IM workloads hold the batch/chunk-exact floors"
        )
        return
    # best-of-5: single-core VMs see ±30% host-steal noise per draw, and the
    # recorded ratios gate CI — more repeats, not longer streams, is what
    # tightens them.
    results = run_benchmark(n_instances=30_000, repeats=5)
    results["detector_zoo"] = measure_detector_zoo(n_instances=20_000, repeats=2)
    results["schedule_stream"] = measure_schedule_stream(
        n_instances=20_000, repeats=2
    )
    results["fleet"] = measure_fleet(
        n_streams=FLEET_N_STREAMS, n_ticks=500, repeats=3
    )
    results["snapshot_overhead"] = measure_snapshot_overhead(
        n_instances=20_000, repeats=3
    )
    print_regression_diff(results)
    _RECORDED_PATH.write_text(dumps_strict(results, indent=2) + "\n", encoding="utf-8")
    print(dumps_strict(results, indent=2))
    print(f"\nrecorded -> {_RECORDED_PATH}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long zoo run for CI; does not write BENCH_throughput.json",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the slowest workload/mode pair into bench_profile.txt",
    )
    arguments = parser.parse_args()
    main(smoke=arguments.smoke, profile=arguments.profile)
