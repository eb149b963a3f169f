"""Benchmark scenario builders: the paper's taxonomy plus six new families.

The paper (Section IV) defines three scenarios of increasing difficulty;
this module grows the taxonomy to nine families, all expressed as
declarative :class:`~repro.streams.schedule.Schedule`\\ s and executed by the
:class:`~repro.streams.schedule.ScheduledStream` engine (batch-first, seeded,
exact emitted-coordinate ground truth):

* **Scenario 1** — global real concept drift + dynamic imbalance ratio, class
  roles fixed;
* **Scenario 2** — Scenario 1 plus changing class roles (minority becomes
  majority and vice versa);
* **Scenario 3** — local concept drift (only a chosen subset of classes is
  affected) + dynamic imbalance ratio + changing class roles;
* **Scenario 4** — recurring drift: concepts reappear cyclically while class
  roles keep switching;
* **Scenario 5** — gradual mixture drift under *extreme* static imbalance;
* **Scenario 6** — class arrival/removal: the smallest class joins the stream
  mid-run and the majority class later disappears (prior drift);
* **Scenario 7** — feature drift only (virtual drift): a deterministic
  feature-space shift with unchanged concept;
* **Scenario 8** — label-noise burst: a bounded interval of uniformly flipped
  labels on an otherwise stationary stream;
* **Scenario 9** — adversarial blip: a short transient concept excursion that
  detectors should *not* flag (alarms score as false positives).

Each builder returns a :class:`ScenarioStream` bundling the composed stream,
the ground-truth drift positions, and the classes affected by each drift —
everything the evaluation harness needs to score detectors.

The module also provides :func:`make_artificial_stream`, the factory behind
the paper's 12 artificial benchmarks (Aggrawal/Hyperplane/RBF/RandomTree ×
{5, 10, 20} classes) with the drift speeds listed in Table I, and the
:data:`SCENARIO_BUILDERS` registry consumed by :mod:`repro.protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.streams.base import DataStream
from repro.streams.imbalance import (
    DynamicImbalance,
    ImbalanceProfile,
    RoleSwitchingImbalance,
    StaticImbalance,
)
from repro.streams.generators import (
    AgrawalGenerator,
    HyperplaneGenerator,
    RandomRBFGenerator,
    RandomTreeGenerator,
)
from repro.streams.schedule import DriftEvent, Schedule, ScheduledStream, Segment

__all__ = [
    "ScenarioStream",
    "ARTIFICIAL_FAMILIES",
    "SCENARIO_BUILDERS",
    "make_generator",
    "make_artificial_stream",
    "build_scenario_stream",
    "scenario_global_drift",
    "scenario_role_switching",
    "scenario_local_drift",
    "scenario_recurring_drift",
    "scenario_gradual_mixture",
    "scenario_class_arrival",
    "scenario_feature_drift",
    "scenario_label_noise",
    "scenario_blip",
]

#: Family name -> (generator class, drift speed reported in Table I).
ARTIFICIAL_FAMILIES: dict[str, tuple[type, str]] = {
    "agrawal": (AgrawalGenerator, "incremental"),
    "hyperplane": (HyperplaneGenerator, "gradual"),
    "rbf": (RandomRBFGenerator, "sudden"),
    "randomtree": (RandomTreeGenerator, "sudden"),
}


@dataclass
class ScenarioStream:
    """A composed benchmark stream plus its ground truth.

    Attributes
    ----------
    stream:
        The stream to iterate over in the prequential harness.
    drift_points:
        Instance indices at which the scenario's ground-truth changes start
        (real drifts for scenarios 1-5, prior/virtual/noise changes for
        scenarios 6-8, empty for the blip stressor).
    drifted_classes:
        For each drift point, the classes affected (``None`` = all classes).
    name:
        Human-readable benchmark name.
    n_instances:
        Recommended evaluation length.
    events:
        Full typed ground truth (:class:`~repro.streams.schedule.DriftEvent`
        list) when the stream was built by the schedule engine.
    """

    stream: DataStream
    drift_points: list[int]
    drifted_classes: list[list[int] | None]
    name: str
    n_instances: int
    profile: ImbalanceProfile | None = None
    metadata: dict = field(default_factory=dict)
    events: list[DriftEvent] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return self.stream.n_classes

    @property
    def n_features(self) -> int:
        return self.stream.n_features


def make_generator(
    family: str, n_classes: int, n_features: int, concept: int, seed: int | None
) -> DataStream:
    """Instantiate one of the paper's artificial generators on a given concept."""
    key = family.lower()
    if key not in ARTIFICIAL_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {sorted(ARTIFICIAL_FAMILIES)}"
        )
    generator_cls, drift_speed = ARTIFICIAL_FAMILIES[key]
    kwargs = dict(
        n_classes=n_classes, n_features=n_features, concept=concept, seed=seed
    )
    if generator_cls is HyperplaneGenerator and drift_speed == "gradual":
        kwargs["mag_change"] = 0.0
    return generator_cls(**kwargs)


def _drift_schedule(n_instances: int, n_drifts: int) -> list[int]:
    """Evenly spaced drift positions, never at the very start or end."""
    if n_drifts <= 0:
        return []
    spacing = n_instances // (n_drifts + 1)
    return [spacing * (i + 1) for i in range(n_drifts)]


def _family_factory(
    family: str, n_classes: int, seed: int
) -> Callable[[int], DataStream]:
    """Concept factory for one artificial family (4 features per class)."""
    n_features = 4 * n_classes

    def factory(concept: int) -> DataStream:
        return make_generator(family, n_classes, n_features, concept, seed)

    return factory


def _sweep_segments(
    n_instances: int, positions: list[int], transition: str, width: int
) -> list[Segment]:
    """Segments for concepts ``0..len(positions)`` switching at ``positions``."""
    boundaries = [0] + list(positions) + [n_instances]
    return [
        Segment(
            length=boundaries[i + 1] - boundaries[i],
            concept=i,
            transition=transition,
            width=width if i else 0,
        )
        for i in range(len(boundaries) - 1)
    ]


def _dynamic_profile(
    n_classes: int, max_imbalance_ratio: float, n_instances: int
) -> DynamicImbalance:
    return DynamicImbalance(
        n_classes=n_classes,
        min_ratio=max(1.0, max_imbalance_ratio / 4.0),
        max_ratio=max_imbalance_ratio,
        period=max(2, n_instances // 2),
    )


def _role_profile(
    n_classes: int,
    max_imbalance_ratio: float,
    n_instances: int,
    switch_period: int,
) -> RoleSwitchingImbalance:
    return RoleSwitchingImbalance(
        n_classes=n_classes,
        min_ratio=max(1.0, max_imbalance_ratio / 4.0),
        max_ratio=max_imbalance_ratio,
        period=max(2, n_instances // 2),
        switch_period=max(1, switch_period),
    )


def _scenario(
    schedule: Schedule,
    family: str,
    n_classes: int,
    n_instances: int,
    profile: ImbalanceProfile | None,
    seed: int,
    name: str,
    ground_truth_kind: str = "real",
    drift_points: list[int] | None = None,
    drifted_classes: list[list[int] | None] | None = None,
    metadata: dict | None = None,
) -> ScenarioStream:
    """Execute a schedule for one artificial family and bundle its ground truth.

    ``ground_truth_kind`` selects which event kind forms the family's drift
    ground truth (``"real"`` for concept drifts; ``"prior"`` / ``"virtual"``
    / ``"noise"`` for the families whose change points are not concept
    drifts).  Explicit ``drift_points`` / ``drifted_classes`` override (e.g.
    the blip stressor's deliberately empty ground truth).
    """
    stream = ScheduledStream(
        _family_factory(family, n_classes, seed),
        schedule,
        imbalance=profile,
        seed=seed + 2,
        name=name,
    )
    relevant = [e for e in stream.events if e.kind == ground_truth_kind]
    if drift_points is None:
        drift_points = [e.position for e in relevant]
    if drifted_classes is None:
        drifted_classes = [
            list(e.classes) if e.classes is not None else None for e in relevant
        ]
    return ScenarioStream(
        stream=stream,
        drift_points=drift_points,
        drifted_classes=drifted_classes,
        name=name,
        n_instances=n_instances,
        profile=profile,
        metadata={"family": family, "seed": seed, **(metadata or {})},
        events=stream.events,
    )


def make_artificial_stream(
    family: str,
    n_classes: int,
    n_instances: int = 20_000,
    n_drifts: int = 3,
    max_imbalance_ratio: float = 100.0,
    drift_width: int | None = None,
    seed: int = 0,
) -> ScenarioStream:
    """Build one of the paper's artificial benchmarks (Table I, bottom half).

    The stream has ``4 * n_classes`` features (matching the paper's 20/40/80
    features for 5/10/20 classes), evenly spaced global concept drifts of the
    family's characteristic speed (sudden for RBF/RandomTree, gradual for
    Hyperplane, incremental for Agrawal), and a dynamic imbalance ratio
    oscillating between 1/4 of the maximum and the maximum.
    """
    _, speed = ARTIFICIAL_FAMILIES[family.lower()]
    if drift_width is None:
        drift_width = 1 if speed == "sudden" else max(1, n_instances // 20)
    positions = _drift_schedule(n_instances, n_drifts)
    schedule = Schedule.of(
        *_sweep_segments(
            n_instances,
            positions,
            transition=speed,
            width=0 if speed == "sudden" else drift_width,
        )
    )
    return _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=_dynamic_profile(n_classes, max_imbalance_ratio, n_instances),
        seed=seed,
        name=f"{family.capitalize()}{n_classes}",
        metadata={"drift_speed": speed},
    )


def scenario_global_drift(
    family: str = "rbf",
    n_classes: int = 5,
    n_instances: int = 20_000,
    n_drifts: int = 3,
    max_imbalance_ratio: float = 100.0,
    seed: int = 0,
) -> ScenarioStream:
    """Scenario 1: global drift + dynamic IR, static class roles."""
    scenario = make_artificial_stream(
        family=family,
        n_classes=n_classes,
        n_instances=n_instances,
        n_drifts=n_drifts,
        max_imbalance_ratio=max_imbalance_ratio,
        seed=seed,
    )
    scenario.name = f"scenario1-{scenario.name}"
    scenario.metadata["scenario"] = 1
    return scenario


def scenario_role_switching(
    family: str = "rbf",
    n_classes: int = 5,
    n_instances: int = 20_000,
    n_drifts: int = 3,
    max_imbalance_ratio: float = 100.0,
    seed: int = 0,
) -> ScenarioStream:
    """Scenario 2: global drift + dynamic IR + class-role switching."""
    _, speed = ARTIFICIAL_FAMILIES[family.lower()]
    width = 0 if speed == "sudden" else max(1, n_instances // 20)
    positions = _drift_schedule(n_instances, n_drifts)
    schedule = Schedule.of(
        *_sweep_segments(n_instances, positions, transition=speed, width=width)
    )
    profile = _role_profile(
        n_classes,
        max_imbalance_ratio,
        n_instances,
        switch_period=n_instances // (n_drifts + 1),
    )
    return _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=profile,
        seed=seed,
        name=f"scenario2-{family.capitalize()}{n_classes}",
        metadata={"scenario": 2, "drift_speed": speed},
    )


def scenario_local_drift(
    family: str = "rbf",
    n_classes: int = 5,
    n_drifted_classes: int = 1,
    n_instances: int = 20_000,
    max_imbalance_ratio: float = 100.0,
    role_switching: bool = True,
    drift_position: int | None = None,
    drift_width: int = 1,
    seed: int = 0,
) -> ScenarioStream:
    """Scenario 3: local drift on the smallest classes + dynamic IR (+ roles).

    Following the paper's drift-injection protocol for Experiment 2, the drift
    affects the ``n_drifted_classes`` *smallest* classes (largest class index
    under the geometric prior used by the imbalance profiles).  The schedule
    engine keeps non-drifted classes on the old concept and places the drift
    at the *emitted* stream position, so the declared ground truth is exact.
    """
    if not 1 <= n_drifted_classes <= n_classes:
        raise ValueError("n_drifted_classes must be in [1, n_classes]")
    if drift_position is None:
        drift_position = n_instances // 2
    # Smallest classes have the highest indices under geometric_priors.
    drifted = tuple(range(n_classes - n_drifted_classes, n_classes))
    schedule = Schedule.of(
        Segment(length=drift_position, concept=0),
        Segment(
            length=max(1, n_instances - drift_position),
            concept=1,
            transition="gradual",
            width=max(1, drift_width),
            drifted_classes=drifted,
        ),
    )
    profile: ImbalanceProfile
    if role_switching:
        profile = _role_profile(
            n_classes, max_imbalance_ratio, n_instances, switch_period=n_instances // 3
        )
    else:
        profile = StaticImbalance(n_classes, max_imbalance_ratio)
    return _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=profile,
        seed=seed,
        name=f"scenario3-{family.capitalize()}{n_classes}-k{n_drifted_classes}",
        metadata={"scenario": 3, "n_drifted_classes": n_drifted_classes},
    )


def scenario_recurring_drift(
    family: str = "rbf",
    n_classes: int = 5,
    n_instances: int = 20_000,
    n_drifts: int = 3,
    max_imbalance_ratio: float = 100.0,
    seed: int = 0,
    concepts: tuple[int, ...] = (0, 1),
) -> ScenarioStream:
    """Scenario 4: recurring drift + class-role switching.

    Concepts reappear cyclically every period — a detector that resets its
    model on every alarm keeps relearning concepts it has already seen —
    while the imbalance profile keeps rotating class roles.
    """
    period = max(1, n_instances // (n_drifts + 1))
    schedule = Schedule.recurring(concepts, period, n_drifts + 1)
    profile = _role_profile(
        n_classes, max_imbalance_ratio, n_instances, switch_period=period
    )
    return _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=profile,
        seed=seed,
        name=f"scenario4-{family.capitalize()}{n_classes}",
        metadata={"scenario": 4, "period": period, "concepts": list(concepts)},
    )


def scenario_gradual_mixture(
    family: str = "rbf",
    n_classes: int = 5,
    n_instances: int = 20_000,
    n_drifts: int = 3,
    max_imbalance_ratio: float = 100.0,
    seed: int = 0,
) -> ScenarioStream:
    """Scenario 5: gradual mixture drifts under extreme static imbalance.

    Every transition is a long probabilistic mixture window (half the
    inter-drift spacing) and the imbalance ratio is pinned at the maximum the
    whole time, so minority-class evidence for each drift is extremely sparse.
    """
    positions = _drift_schedule(n_instances, n_drifts)
    spacing = n_instances // (n_drifts + 1) if n_drifts else n_instances
    schedule = Schedule.of(
        *_sweep_segments(
            n_instances, positions, transition="gradual", width=max(1, spacing // 2)
        )
    )
    profile = StaticImbalance(n_classes, max_imbalance_ratio)
    return _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=profile,
        seed=seed,
        name=f"scenario5-{family.capitalize()}{n_classes}",
        metadata={"scenario": 5, "mixture_width": max(1, spacing // 2)},
    )


def scenario_class_arrival(
    family: str = "rbf",
    n_classes: int = 5,
    n_instances: int = 20_000,
    max_imbalance_ratio: float = 100.0,
    seed: int = 0,
) -> ScenarioStream:
    """Scenario 6: class arrival and removal (prior drift), concept fixed.

    The smallest class is absent at the start and *arrives* a third of the way
    in; the majority class is *removed* at two thirds.  Class-conditional
    distributions never change — only the prior — which stresses detectors
    that key on raw error rates.
    """
    if n_classes < 3:
        raise ValueError("scenario 6 needs n_classes >= 3")
    everyone = tuple(range(n_classes))
    t_arrive, t_remove = n_instances // 3, 2 * n_instances // 3
    schedule = Schedule.of(
        Segment(length=t_arrive, concept=0, active_classes=everyone[:-1]),
        Segment(length=t_remove - t_arrive, active_classes=everyone),
        Segment(length=max(1, n_instances - t_remove), active_classes=everyone[1:]),
    )
    profile = _dynamic_profile(n_classes, max_imbalance_ratio, n_instances)
    return _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=profile,
        seed=seed,
        name=f"scenario6-{family.capitalize()}{n_classes}",
        ground_truth_kind="prior",
        metadata={"scenario": 6, "kind": "prior"},
    )


def scenario_feature_drift(
    family: str = "rbf",
    n_classes: int = 5,
    n_instances: int = 20_000,
    max_imbalance_ratio: float = 100.0,
    seed: int = 0,
    shift_magnitude: float = 0.5,
) -> ScenarioStream:
    """Scenario 7: feature drift only (virtual drift).

    At the midpoint the feature space starts sliding along a fixed seeded
    direction, ramping to ``shift_magnitude`` over a tenth of the stream; the
    concept (labelling function on the *original* space) never changes.
    """
    midpoint = n_instances // 2
    schedule = Schedule.of(
        Segment(length=midpoint, concept=0),
        Segment(
            length=max(1, n_instances - midpoint),
            feature_shift=shift_magnitude,
            width=max(1, n_instances // 10),
        ),
    )
    profile = _dynamic_profile(n_classes, max_imbalance_ratio, n_instances)
    return _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=profile,
        seed=seed,
        name=f"scenario7-{family.capitalize()}{n_classes}",
        ground_truth_kind="virtual",
        metadata={"scenario": 7, "kind": "virtual", "shift_magnitude": shift_magnitude},
    )


def scenario_label_noise(
    family: str = "rbf",
    n_classes: int = 5,
    n_instances: int = 20_000,
    max_imbalance_ratio: float = 100.0,
    seed: int = 0,
    noise_rate: float = 0.25,
) -> ScenarioStream:
    """Scenario 8: label-noise burst on an otherwise stationary stream.

    A sixth of the stream (starting at one third) has ``noise_rate`` of its
    labels flipped uniformly to another class; before and after, the stream
    is clean.  Both edges of the burst are ground-truth change points (the
    error rate jumps at the start and drops back at the end).
    """
    t_start = n_instances // 3
    burst = max(1, n_instances // 6)
    schedule = Schedule.of(
        Segment(length=t_start, concept=0),
        Segment(length=burst, label_noise=noise_rate),
        Segment(length=max(1, n_instances - t_start - burst)),
    )
    profile = _dynamic_profile(n_classes, max_imbalance_ratio, n_instances)
    return _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=profile,
        seed=seed,
        name=f"scenario8-{family.capitalize()}{n_classes}",
        ground_truth_kind="noise",
        metadata={
            "scenario": 8,
            "kind": "noise",
            "noise_rate": noise_rate,
            "burst": [t_start, t_start + burst],
        },
    )


def scenario_blip(
    family: str = "rbf",
    n_classes: int = 5,
    n_instances: int = 20_000,
    max_imbalance_ratio: float = 100.0,
    seed: int = 0,
    blip_length: int | None = None,
) -> ScenarioStream:
    """Scenario 9: adversarial blip / false-alarm stressor.

    A short transient excursion to a different concept at the midpoint,
    immediately reverting.  The ground-truth drift list is *empty*: a robust
    detector should ride the blip out, and any alarm scores as a false
    positive (the blip window is recorded in the metadata for analysis).
    """
    if blip_length is None:
        blip_length = max(50, n_instances // 100)
    midpoint = n_instances // 2
    schedule = Schedule.of(
        Segment(length=midpoint, concept=0),
        Segment(length=blip_length, concept=1, blip=True),
        Segment(length=max(1, n_instances - midpoint - blip_length), concept=0),
    )
    profile = _dynamic_profile(n_classes, max_imbalance_ratio, n_instances)
    scenario = _scenario(
        schedule,
        family,
        n_classes,
        n_instances,
        profile=profile,
        seed=seed,
        name=f"scenario9-{family.capitalize()}{n_classes}",
        drift_points=[],
        drifted_classes=[],
        metadata={
            "scenario": 9,
            "kind": "blip",
            "blips": [[midpoint, midpoint + blip_length]],
        },
    )
    return scenario


#: Scenario id -> builder, the registry behind the protocol's scenario axis.
SCENARIO_BUILDERS: dict[int, Callable[..., ScenarioStream]] = {
    1: scenario_global_drift,
    2: scenario_role_switching,
    3: scenario_local_drift,
    4: scenario_recurring_drift,
    5: scenario_gradual_mixture,
    6: scenario_class_arrival,
    7: scenario_feature_drift,
    8: scenario_label_noise,
    9: scenario_blip,
}

#: Builders whose uniform signature includes ``n_drifts``.
_TAKES_N_DRIFTS = frozenset({1, 2, 4, 5})


def build_scenario_stream(
    scenario: int,
    family: str,
    n_classes: int,
    n_instances: int,
    n_drifts: int,
    max_imbalance_ratio: float,
    seed: int,
) -> ScenarioStream:
    """Build any registered scenario family with the protocol's uniform axes."""
    try:
        scenario = int(scenario)
        builder = SCENARIO_BUILDERS[scenario]
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"unknown scenario {scenario!r}; expected one of "
            f"{sorted(SCENARIO_BUILDERS)}"
        ) from None
    kwargs = dict(
        family=family,
        n_classes=n_classes,
        n_instances=n_instances,
        max_imbalance_ratio=max_imbalance_ratio,
        seed=seed,
    )
    if scenario in _TAKES_N_DRIFTS:
        kwargs["n_drifts"] = n_drifts
    return builder(**kwargs)
