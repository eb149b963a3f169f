"""Declarative description of the paper's experimental protocol.

A :class:`ProtocolSpec` names *what* to run — the artificial benchmark
families and class counts (Table I), the drift/imbalance scenarios (Section
IV), the detector line-up, and the seeds — together with the run parameters
that affect results (stream length, prequential window, chunking, drift
tolerance).  :meth:`ProtocolSpec.expand` turns the spec into the full list of
:class:`ProtocolCell`\\ s, one independent prequential run each.

Every cell has a **content-hashed key** (:meth:`ProtocolSpec.cell_key`):
the SHA-256 of the canonical JSON of the cell coordinates plus every
run-affecting spec field.  The key is what the results store files records
under, which gives the pipeline two properties for free:

* **resumability** — a re-invoked run recomputes only cells whose key has no
  stored record;
* **cache invalidation** — changing any run-affecting parameter (stream
  length, window, chunking, ...) changes every key, so stale records can
  never be mistaken for results of the new configuration.

Keys deliberately hash only primitive, explicitly-listed fields (never code
objects or reprs), so they are stable across process restarts and Python
upgrades.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from repro.streams.scenarios import (
    ARTIFICIAL_FAMILIES,
    SCENARIO_BUILDERS,
    ScenarioStream,
    build_scenario_stream,
)

from repro.protocol.registry import DETECTOR_NAMES, PAPER_DETECTORS

__all__ = [
    "KEY_VERSION",
    "DEFAULT_CLASSIFIER_LABEL",
    "ProtocolCell",
    "ProtocolSpec",
    "benchmark_name",
    "build_scenario",
    "callable_label",
]

#: Bumped whenever the semantics behind a cell key change incompatibly
#: (e.g. the prequential harness alters what a stored record means).
#: v2: scenario streams are generated by the schedule engine (scenario
#: engine v2) — seeded realizations differ from the retired wrapper
#: compositions, so records stored under v1 keys must not be reused.
KEY_VERSION = 2

#: Identity of the default base classifier, as produced by
#: :func:`callable_label` for the paper's default factory.
DEFAULT_CLASSIFIER_LABEL = "repro.evaluation.experiment.default_classifier_factory"

#: Every registered scenario family: 1-3 are the paper's taxonomy, 4-9 the
#: extended families (recurring, gradual mixture, class arrival/removal,
#: feature drift, label noise, blip stressor).
_SCENARIOS = tuple(sorted(SCENARIO_BUILDERS))


def callable_label(fn) -> str:
    """A restart-stable identity string for a (factory) callable.

    Module-level callables map to ``module.qualname``.  Lambdas, closures,
    and other unnameable callables fall back to ``repr`` — which embeds a
    memory address and therefore differs between processes.  That direction
    of instability is deliberate: an unnameable classifier factory means its
    cells are *recomputed* on resume rather than ever reusing records that
    might belong to a different classifier.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if module and qualname and "<locals>" not in qualname and "<lambda>" not in qualname:
        return f"{module}.{qualname}"
    return repr(fn)


def benchmark_name(family: str, n_classes: int, scenario: int) -> str:
    """The stream name a scenario builder will give this benchmark.

    Must stay in sync with the names assigned in
    :mod:`repro.streams.scenarios`; cheap to compute so keys never require
    building a stream.  Divergence is pinned by
    ``tests/protocol/test_spec.py::TestExpansion::
    test_benchmark_names_match_scenario_builders``.
    """
    base = f"scenario{scenario}-{family.capitalize()}{n_classes}"
    if scenario == 3:
        base += "-k1"  # scenario_local_drift drifts one (the smallest) class
    return base


def build_scenario(
    seed: int,
    family: str,
    n_classes: int,
    scenario: int,
    n_instances: int,
    n_drifts: int,
    max_imbalance_ratio: float,
) -> ScenarioStream:
    """Build the scenario stream for one cell (module-level, hence picklable).

    Scenario-id validation lives in :func:`build_scenario_stream` (the single
    authority over the registry).
    """
    return build_scenario_stream(
        scenario,
        family=family,
        n_classes=n_classes,
        n_instances=n_instances,
        n_drifts=n_drifts,
        max_imbalance_ratio=max_imbalance_ratio,
        seed=seed,
    )


@dataclass(frozen=True)
class ProtocolCell:
    """Coordinates of one experiment: (benchmark, scenario, detector, seed)."""

    family: str
    n_classes: int
    scenario: int
    detector: str
    seed: int

    @property
    def benchmark(self) -> str:
        return benchmark_name(self.family, self.n_classes, self.scenario)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n_classes": self.n_classes,
            "scenario": self.scenario,
            "detector": self.detector,
            "seed": self.seed,
        }


@dataclass
class ProtocolSpec:
    """The full Section IV/V protocol as data.

    The default field values reproduce the paper's setup: 12 artificial
    benchmarks (four families x {5, 10, 20} classes), scenarios 1-3, the six
    compared detectors, 20 000-instance streams with three drifts and a
    maximum imbalance ratio of 100, and the 1000-instance prequential window.
    """

    name: str = "paper"
    families: tuple[str, ...] = ("agrawal", "hyperplane", "rbf", "randomtree")
    class_counts: tuple[int, ...] = (5, 10, 20)
    scenarios: tuple[int, ...] = (1, 2, 3)
    detectors: tuple[str, ...] = PAPER_DETECTORS
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_instances: int = 20_000
    n_drifts: int = 3
    max_imbalance_ratio: float = 100.0
    window_size: int = 1_000
    pretrain_size: int = 200
    chunk_size: int | None = 512
    batch_mode: bool = False
    drift_tolerance: int = 2_000

    def __post_init__(self) -> None:
        self.families = tuple(str(f).lower() for f in self.families)
        self.class_counts = tuple(int(c) for c in self.class_counts)
        self.scenarios = tuple(int(s) for s in self.scenarios)
        self.detectors = tuple(str(d) for d in self.detectors)
        self.seeds = tuple(int(s) for s in self.seeds)
        for family in self.families:
            if family not in ARTIFICIAL_FAMILIES:
                raise ValueError(
                    f"unknown family {family!r}; expected one of "
                    f"{sorted(ARTIFICIAL_FAMILIES)}"
                )
        for scenario in self.scenarios:
            if scenario not in _SCENARIOS:
                raise ValueError(f"scenarios must be among {_SCENARIOS}")
        for detector in self.detectors:
            if detector not in DETECTOR_NAMES:
                raise ValueError(
                    f"unknown detector {detector!r}; expected one of "
                    f"{sorted(DETECTOR_NAMES)}"
                )
        if not (self.families and self.class_counts and self.scenarios
                and self.detectors and self.seeds):
            raise ValueError("spec must name at least one cell on every axis")
        # A repeated value would expand into two cells with one key: counted
        # twice by len() and status(), and run twice.
        for axis in ("families", "class_counts", "scenarios", "detectors", "seeds"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} must not repeat a value, got {values}")
        if self.n_instances < 1 or self.n_drifts < 0:
            raise ValueError("n_instances must be >= 1 and n_drifts >= 0")
        if min(self.class_counts) < 2:
            raise ValueError("class_counts must all be >= 2")
        # The bounds the imbalance profiles, PrequentialRunner, the pmAUC
        # window and the drift matcher enforce, checked here so a bad spec
        # fails before any cell runs instead of storing one failure record
        # per cell.
        if self.max_imbalance_ratio < 1.0:
            raise ValueError("max_imbalance_ratio must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 or None")
        if self.batch_mode and self.chunk_size is None:
            raise ValueError("batch_mode requires chunk_size")
        if self.pretrain_size < 0:
            raise ValueError("pretrain_size must be >= 0")
        if self.window_size < 10:
            raise ValueError("window_size must be >= 10")
        if self.drift_tolerance < 0:
            raise ValueError("drift_tolerance must be >= 0")

    # ------------------------------------------------------------ expansion
    def expand(self) -> list[ProtocolCell]:
        """Every cell of the protocol, in deterministic order."""
        return [
            ProtocolCell(
                family=family,
                n_classes=n_classes,
                scenario=scenario,
                detector=detector,
                seed=seed,
            )
            for scenario in self.scenarios
            for family in self.families
            for n_classes in self.class_counts
            for detector in self.detectors
            for seed in self.seeds
        ]

    def __len__(self) -> int:
        return (
            len(self.families)
            * len(self.class_counts)
            * len(self.scenarios)
            * len(self.detectors)
            * len(self.seeds)
        )

    def benchmarks(self) -> list[str]:
        """The benchmark names the spec expands to (datasets of the tables)."""
        return [
            benchmark_name(family, n_classes, scenario)
            for scenario in self.scenarios
            for family in self.families
            for n_classes in self.class_counts
        ]

    def stream_factory(self, cell: ProtocolCell) -> Callable[[int], ScenarioStream]:
        """Picklable ``seed -> ScenarioStream`` factory for one cell."""
        return functools.partial(
            build_scenario,
            family=cell.family,
            n_classes=cell.n_classes,
            scenario=cell.scenario,
            n_instances=self.n_instances,
            n_drifts=self.n_drifts,
            max_imbalance_ratio=self.max_imbalance_ratio,
        )

    # ------------------------------------------------------------ cell keys
    def run_parameters(self, classifier: str = DEFAULT_CLASSIFIER_LABEL) -> dict:
        """Every field that affects a cell's result (hashed into its key)."""
        return {
            "n_instances": self.n_instances,
            "n_drifts": self.n_drifts,
            "max_imbalance_ratio": self.max_imbalance_ratio,
            "window_size": self.window_size,
            "pretrain_size": self.pretrain_size,
            "chunk_size": self.chunk_size,
            "batch_mode": self.batch_mode,
            "drift_tolerance": self.drift_tolerance,
            "classifier": classifier,
        }

    def cell_key(
        self, cell: ProtocolCell, classifier: str = DEFAULT_CLASSIFIER_LABEL
    ) -> str:
        """Stable content-hashed key for one cell.

        The key embeds a short human-readable slug (benchmark, detector,
        seed) followed by 16 hex characters of the SHA-256 over the canonical
        JSON of the cell coordinates, the run parameters (including the
        ``classifier`` identity, so swapping the base classifier can never
        reuse a stale cache), and :data:`KEY_VERSION`.
        """
        payload = {
            "version": KEY_VERSION,
            "cell": cell.to_dict(),
            "run": self.run_parameters(classifier),
        }
        # allow_nan=False: a non-finite spec parameter (max_imbalance_ratio
        # = inf, say) would otherwise serialise as a non-portable bare token
        # and silently produce a content hash other JSON writers can't
        # reproduce — fail loudly at key-computation time instead.
        canonical = json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
        digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
        slug = f"{cell.benchmark}.{cell.detector}.s{cell.seed}"
        return f"{slug}.{digest[:16]}"

    # --------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(self)
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(), indent=2, sort_keys=True, allow_nan=False
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolSpec":
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ProtocolSpec":
        return cls.from_dict(json.loads(text))

    # --------------------------------------------------------------- presets
    @classmethod
    def paper(cls, seeds: Sequence[int] = (0, 1, 2, 3, 4)) -> "ProtocolSpec":
        """The full reproduction: 36 benchmarks x 6 detectors x seeds."""
        return cls(name="paper", seeds=tuple(seeds))

    @classmethod
    def extended(cls, seeds: Sequence[int] = (0, 1, 2)) -> "ProtocolSpec":
        """Every scenario family (paper's 1-3 plus the six extended ones).

        The full declarative grid: 4 families x 3 class counts x 9 scenarios
        x 6 detectors.  Fewer default seeds than the ``paper`` preset keep
        the cell count comparable; trim the axes freely via ``spec`` JSON.
        """
        return cls(
            name="extended",
            scenarios=_SCENARIOS,
            seeds=tuple(seeds),
        )

    @classmethod
    def stress(cls, seeds: Sequence[int] = (0, 1)) -> "ProtocolSpec":
        """The adversarial stressor families under harsher imbalance.

        Gradual mixtures at IR 200, class arrival/removal, feature-only
        drift, label-noise bursts, and the blip false-alarm stressor — the
        scenarios that punish detectors tuned only for the paper's taxonomy.
        """
        return cls(
            name="stress",
            families=("rbf", "randomtree"),
            class_counts=(5, 10),
            scenarios=(5, 6, 7, 8, 9),
            seeds=tuple(seeds),
            max_imbalance_ratio=200.0,
        )

    @classmethod
    def quick(cls) -> "ProtocolSpec":
        """A 2-cell smoke spec (seconds to run) for CI and demos."""
        return cls(
            name="quick",
            families=("rbf",),
            class_counts=(5,),
            scenarios=(1,),
            detectors=("DDM", "RBM-IM"),
            seeds=(0,),
            n_instances=600,
            n_drifts=1,
            max_imbalance_ratio=20.0,
            window_size=200,
            pretrain_size=100,
            chunk_size=128,
            drift_tolerance=300,
        )
