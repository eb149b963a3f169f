"""Data-stream substrate: instances, generators, imbalance profiles, and the
schedule engine that composes them into drifting benchmark scenarios."""

from repro.streams.base import (
    DataStream,
    Instance,
    ListStream,
    StreamSchema,
    stream_to_arrays,
    take,
)
from repro.streams.imbalance import (
    DynamicImbalance,
    ImbalanceProfile,
    RoleSwitchingImbalance,
    StaticImbalance,
    geometric_priors,
)
from repro.streams.real_world import (
    REAL_WORLD_SPECS,
    RealWorldSpec,
    real_world_names,
    real_world_stream,
)
from repro.streams.scenarios import (
    ARTIFICIAL_FAMILIES,
    SCENARIO_BUILDERS,
    ScenarioStream,
    build_scenario_stream,
    make_artificial_stream,
    make_generator,
    scenario_blip,
    scenario_class_arrival,
    scenario_feature_drift,
    scenario_global_drift,
    scenario_gradual_mixture,
    scenario_label_noise,
    scenario_local_drift,
    scenario_recurring_drift,
    scenario_role_switching,
)
from repro.streams.schedule import (
    DriftEvent,
    Schedule,
    ScheduledStream,
    Segment,
)

__all__ = [
    "DataStream",
    "Instance",
    "ListStream",
    "StreamSchema",
    "stream_to_arrays",
    "take",
    "DynamicImbalance",
    "ImbalanceProfile",
    "RoleSwitchingImbalance",
    "StaticImbalance",
    "geometric_priors",
    "REAL_WORLD_SPECS",
    "RealWorldSpec",
    "real_world_names",
    "real_world_stream",
    "ARTIFICIAL_FAMILIES",
    "SCENARIO_BUILDERS",
    "ScenarioStream",
    "build_scenario_stream",
    "make_artificial_stream",
    "make_generator",
    "scenario_blip",
    "scenario_class_arrival",
    "scenario_feature_drift",
    "scenario_global_drift",
    "scenario_gradual_mixture",
    "scenario_label_noise",
    "scenario_local_drift",
    "scenario_recurring_drift",
    "scenario_role_switching",
    "DriftEvent",
    "Schedule",
    "ScheduledStream",
    "Segment",
]
