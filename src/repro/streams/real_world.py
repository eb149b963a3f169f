"""Surrogates for the paper's 12 real-world benchmark streams.

The evaluation in Table III uses 12 real-world datasets (Activity-Raw,
Connect4, Covertype, Crimes, DJ30, EEG, Electricity, Gas, Olympic, Poker,
IntelSensors, Tags) that are not redistributable and not available offline.
Per the reproduction's substitution rule we build *seeded synthetic
surrogates* whose metadata matches Table I: number of features, number of
classes, maximum imbalance ratio, and whether the stream is known to drift.
Instance counts are scaled down (configurable) so the full benchmark suite
runs on a laptop.

The surrogate for each dataset is a RandomRBF-based stream (feature/label
structure with localised class regions resembles most tabular sensor/activity
data) executed by the schedule engine with the appropriate drift schedule and
a dynamic imbalance profile reaching the dataset's reported maximum IR.  The
engine places drifts at *emitted* stream positions, so the declared drift
points are exact.  What matters for the reproduction is that the surrogates
exercise the identical code path and difficulty axes (many classes, heavy
skew, drift or stationarity); absolute metric values differ from the paper,
relative detector comparisons should not.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.streams.base import DataStream
from repro.streams.generators import RandomRBFGenerator
from repro.streams.imbalance import (
    DynamicImbalance,
    ImbalanceProfile,
    StaticImbalance,
)
from repro.streams.scenarios import ScenarioStream
from repro.streams.schedule import Schedule, ScheduledStream, Segment

__all__ = [
    "RealWorldSpec",
    "REAL_WORLD_SPECS",
    "real_world_stream",
    "real_world_names",
]


@dataclass(frozen=True)
class RealWorldSpec:
    """Metadata of one real-world benchmark, copied from Table I."""

    name: str
    instances: int
    features: int
    classes: int
    imbalance_ratio: float
    drift: str  # "yes", "unknown"


#: Table I (top half) of the paper.
REAL_WORLD_SPECS: tuple[RealWorldSpec, ...] = (
    RealWorldSpec("Activity-Raw", 1_048_570, 3, 6, 128.93, "yes"),
    RealWorldSpec("Connect4", 67_557, 42, 3, 45.81, "unknown"),
    RealWorldSpec("Covertype", 581_012, 54, 7, 96.14, "unknown"),
    RealWorldSpec("Crimes", 878_049, 3, 39, 106.72, "unknown"),
    RealWorldSpec("DJ30", 138_166, 8, 30, 204.66, "yes"),
    RealWorldSpec("EEG", 14_980, 14, 2, 29.88, "yes"),
    RealWorldSpec("Electricity", 45_312, 8, 2, 17.54, "yes"),
    RealWorldSpec("Gas", 13_910, 128, 6, 138.03, "yes"),
    RealWorldSpec("Olympic", 271_116, 7, 4, 66.82, "unknown"),
    RealWorldSpec("Poker", 829_201, 10, 10, 144.00, "yes"),
    RealWorldSpec("IntelSensors", 2_219_804, 5, 57, 348.26, "yes"),
    RealWorldSpec("Tags", 164_860, 4, 11, 194.28, "unknown"),
)

_SPEC_INDEX = {spec.name.lower(): spec for spec in REAL_WORLD_SPECS}


def real_world_names() -> list[str]:
    """Names of all 12 real-world benchmarks, in Table I order."""
    return [spec.name for spec in REAL_WORLD_SPECS]


def _surrogate_generator(spec: RealWorldSpec, seed: int, concept: int) -> DataStream:
    n_centroids = max(spec.classes * 3, 30)
    return RandomRBFGenerator(
        n_classes=spec.classes,
        n_features=spec.features,
        n_centroids=n_centroids,
        concept=concept,
        seed=seed,
        name=spec.name.lower(),
    )


def real_world_stream(
    name: str,
    n_instances: int | None = None,
    max_instances: int = 30_000,
    seed: int = 0,
) -> ScenarioStream:
    """Build the surrogate stream for one of the Table I real-world datasets.

    Parameters
    ----------
    name:
        Dataset name (case-insensitive), e.g. ``"Covertype"``.
    n_instances:
        Evaluation length; defaults to ``min(spec.instances, max_instances)``.
    max_instances:
        Cap applied when ``n_instances`` is not given — keeps the full
        24-stream benchmark laptop-sized.
    seed:
        RNG seed, combined with a per-dataset offset for diversity.
    """
    spec = _SPEC_INDEX.get(name.lower())
    if spec is None:
        raise KeyError(
            f"unknown real-world dataset {name!r}; known: {real_world_names()}"
        )
    if n_instances is None:
        n_instances = min(spec.instances, max_instances)
    # crc32, not hash(): Python salts str hashes per process.
    dataset_seed = seed + zlib.crc32(spec.name.encode("utf-8")) % 10_000

    profile: ImbalanceProfile
    if spec.drift == "yes":
        # Three evenly spaced sudden drifts, mirroring a drifting real stream.
        spacing = n_instances // 4
        schedule = Schedule.of(
            Segment(length=spacing, concept=0),
            Segment(length=spacing, concept=1),
            Segment(length=spacing, concept=2),
            Segment(length=max(1, n_instances - 3 * spacing), concept=3),
        )
        profile = DynamicImbalance(
            n_classes=spec.classes,
            min_ratio=max(1.0, spec.imbalance_ratio / 4.0),
            max_ratio=spec.imbalance_ratio,
            period=max(2, n_instances // 2),
        )
    else:
        schedule = Schedule.of(Segment(length=n_instances, concept=0))
        profile = StaticImbalance(spec.classes, spec.imbalance_ratio)

    stream = ScheduledStream(
        lambda concept: _surrogate_generator(spec, dataset_seed, concept),
        schedule,
        imbalance=profile,
        seed=dataset_seed + 2,
        name=spec.name.lower(),
    )
    return ScenarioStream(
        stream=stream,
        drift_points=stream.drift_points,
        drifted_classes=stream.drifted_classes,
        name=spec.name,
        n_instances=n_instances,
        profile=profile,
        metadata={
            "surrogate": True,
            "table_i": spec,
            "seed": seed,
        },
        events=stream.events,
    )
