"""Declarative drift/imbalance schedule DSL and its batch-first engine.

The paper evaluates RBM-IM on three hand-built scenario templates; the
roadmap demands "as many scenarios as you can imagine".  This module turns
scenario construction into *data*: a :class:`Schedule` is a sequence of
:class:`Segment` objects, each declaring — for a span of the stream — the
generator concept in force, how the stream transitions into it (sudden /
gradual / incremental, optionally restricted to a subset of classes for
local drift), the imbalance behaviour (profile-driven, per-segment static
ratio, role rotation), which classes are active (class arrival/removal),
the label-noise rate, and a deterministic feature-drift offset.

:class:`ScheduledStream` executes a schedule as one seeded, batch-first
stream.  Two invariants make it fit the repo's chunk-exactness contract:

* **fixed draw budget** — the engine consumes exactly four uniform doubles
  of its own RNG per emitted instance (class choice, concept choice, noise
  flip, noise target), drawn as one contiguous ``(n, 4)`` block, so
  ``generate_batch(n)`` consumes the bit stream exactly like ``n`` calls of
  ``next_instance()``;
* **emitted-coordinate ground truth** — every scheduled change happens at an
  *emitted* stream position (the engine re-samples class-conditionally from
  per-concept sources), so the :class:`DriftEvent` list is exact by
  construction: the instance at ``event.position`` is the first one
  generated under the new configuration.

Each class carries its own concept: a local drift moves only the classes it
names, and they stay apart from the rest until a later segment moves them.
Each concept has its own class-conditional sampler
(:mod:`repro.streams.sampling`); a batch hands each run of requests with
the same concept and segment to that sampler in one call.

The last segment is open-ended: its configuration continues indefinitely, so
a scheduled stream never exhausts (evaluation harnesses choose the length).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.streams.base import DataStream, StreamSchema
from repro.streams.imbalance import ImbalanceProfile, geometric_priors_batch
from repro.streams.sampling import (
    MAX_BUFFER_PER_CLASS,
    SOURCE_BLOCK_SIZE,
    ClassConditionalSampler,
    UniformReplayBuffer,
    inverse_cdf_classes,
)

__all__ = [
    "DRIFT_KINDS",
    "TRANSITIONS",
    "DriftEvent",
    "Segment",
    "Schedule",
    "ScheduledStream",
]

#: Ground-truth event kinds a schedule can emit.
DRIFT_KINDS = ("real", "blip", "virtual", "noise", "prior")

#: Supported transition speeds into a segment's concept.
TRANSITIONS = ("sudden", "gradual", "incremental")


@dataclass(frozen=True)
class DriftEvent:
    """One exact ground-truth change point of a scheduled stream.

    Attributes
    ----------
    position:
        Emitted-instance index of the first instance generated under the new
        configuration.
    kind:
        ``"real"`` — concept change (true concept drift); ``"blip"`` —
        transient concept excursion that detectors should *not* flag as a
        sustained drift; ``"virtual"`` — deterministic feature-space shift
        with unchanged concept; ``"noise"`` — label-noise rate change;
        ``"prior"`` — class arrival/removal (prior drift).
    classes:
        Classes affected (``None`` = all classes).
    """

    position: int
    kind: str
    classes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.position < 0:
            raise ValueError("event position must be non-negative")


@dataclass(frozen=True)
class Segment:
    """One span of a scheduled stream.

    Parameters
    ----------
    length:
        Number of instances in the segment (the final segment of a schedule
        is open-ended and its configuration persists past its length).
    concept:
        Generator concept the segment moves its ``drifted_classes`` onto;
        ``None`` leaves every class on its concept.  Every class starts on
        concept 0.
    transition:
        How each moved class goes from its previous concept to this one:
        ``"sudden"`` (abrupt), ``"gradual"`` (probabilistic oscillation), or
        ``"incremental"`` (sigmoidal mixture progression) over ``width``
        instances.  Ignored for classes whose concept does not change.
    width:
        Transition window length (0 = abrupt).  Also the ramp length of a
        ``feature_shift`` change.
    drifted_classes:
        Restrict the concept change to these classes (local drift): every
        other class keeps its concept, in this segment and after it, until a
        later segment moves it.  ``None`` = all classes move.
    imbalance_ratio:
        Per-segment static imbalance ratio override; ``None`` uses the
        schedule-level profile (or balanced priors when none is set).
    rotation:
        Rotate the prior vector by this many positions (declarative role
        switching on top of whatever profile is active).  ``None`` leaves the
        profile's own behaviour untouched.
    active_classes:
        Classes that may be emitted in this segment (class arrival/removal);
        priors of inactive classes are zeroed and the rest renormalised.
        ``None`` = all classes active.
    label_noise:
        Probability of flipping an emitted label to a different (active)
        class, uniformly.
    feature_shift:
        Deterministic feature-space offset magnitude (virtual drift) reached
        ``width`` instances into the segment; ``None`` inherits the previous
        segment's magnitude.
    blip:
        Mark this segment's concept change (and the change back out of it)
        as a transient blip: excluded from the *real* drift ground truth so
        detections near it score as false alarms.
    """

    length: int
    concept: int | None = None
    transition: str = "sudden"
    width: int = 0
    drifted_classes: tuple[int, ...] | None = None
    imbalance_ratio: float | None = None
    rotation: int | None = None
    active_classes: tuple[int, ...] | None = None
    label_noise: float = 0.0
    feature_shift: float | None = None
    blip: bool = False

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"segment length must be positive, got {self.length}")
        if self.transition not in TRANSITIONS:
            raise ValueError(
                f"unknown transition {self.transition!r}; expected one of {TRANSITIONS}"
            )
        if self.width < 0:
            raise ValueError("width must be non-negative")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise must be in [0, 1]")
        if self.imbalance_ratio is not None and self.imbalance_ratio < 1.0:
            raise ValueError("imbalance_ratio must be >= 1")
        for name in ("drifted_classes", "active_classes"):
            value = getattr(self, name)
            if value is not None:
                value = tuple(sorted(set(int(c) for c in value)))
                if not value:
                    raise ValueError(f"{name} must not be empty when given")
                object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Schedule:
    """An ordered sequence of :class:`Segment`\\ s plus derived ground truth."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a schedule needs at least one segment")
        object.__setattr__(self, "segments", segments)

    # ------------------------------------------------------------ constructors
    @classmethod
    def of(cls, *segments: Segment) -> "Schedule":
        return cls(segments=tuple(segments))

    @classmethod
    def recurring(
        cls, concepts: Sequence[int], period: int, n_periods: int
    ) -> "Schedule":
        """Cycle through ``concepts`` every ``period`` instances, ``n_periods`` times."""
        if not concepts:
            raise ValueError("concepts must be non-empty")
        if period <= 0 or n_periods <= 0:
            raise ValueError("period and n_periods must be positive")
        return cls.of(
            *(
                Segment(length=period, concept=int(concepts[i % len(concepts)]))
                for i in range(n_periods)
            )
        )

    # --------------------------------------------------------------- geometry
    @property
    def total_length(self) -> int:
        """Sum of segment lengths (the last segment extends past this)."""
        return sum(segment.length for segment in self.segments)

    def starts(self) -> list[int]:
        """Emitted-instance index at which each segment begins."""
        positions, cursor = [], 0
        for segment in self.segments:
            positions.append(cursor)
            cursor += segment.length
        return positions

    def class_concepts(self, n_classes: int) -> np.ndarray:
        """Concept of every class in every segment, shape ``(segments, n_classes)``.

        The concept a class holds once the segment's transition completes:
        classes start on concept 0, a segment with a ``concept`` moves its
        ``drifted_classes`` (all classes when ``None``) onto it, and every
        other class keeps the concept it had.
        """
        table = np.zeros((len(self.segments), n_classes), dtype=np.int64)
        current = np.zeros(n_classes, dtype=np.int64)
        for row, segment in zip(table, self.segments):
            if segment.concept is not None:
                moved = segment.drifted_classes
                current[slice(None) if moved is None else list(moved)] = segment.concept
            row[:] = current
        return table

    def resolved_shifts(self) -> list[float]:
        """Per-segment feature-shift magnitude with ``None`` inheritance."""
        shifts, current = [], 0.0
        for segment in self.segments:
            if segment.feature_shift is not None:
                current = float(segment.feature_shift)
            shifts.append(current)
        return shifts

    # ----------------------------------------------------------- ground truth
    def events(self, n_classes: int | None = None) -> list[DriftEvent]:
        """Every exact ground-truth change point, in stream order.

        A real or blip event names exactly the classes whose concept changed,
        or ``None`` when all of them did.  ``n_classes`` names the affected
        classes where the schedule alone cannot: a concept change that moves
        some but not all of the classes no ``drifted_classes`` names, and a
        class arrival/removal where one side is "all classes".  Without it,
        such changes report ``None``.
        """
        named = [c for s in self.segments for c in s.drifted_classes or ()]
        # Without n_classes, one extra column stands for every unnamed class.
        width = n_classes if n_classes is not None else max(named, default=-1) + 2
        concepts = self.class_concepts(width)
        events: list[DriftEvent] = []
        starts = self.starts()
        shifts = self.resolved_shifts()
        for i in range(1, len(self.segments)):
            segment, previous = self.segments[i], self.segments[i - 1]
            position = starts[i]
            moved = np.flatnonzero(concepts[i] != concepts[i - 1])
            if moved.size:
                kind = "blip" if (segment.blip or previous.blip) else "real"
                unnamed = n_classes is None and moved[-1] == width - 1
                if moved.size == width or unnamed:
                    classes = None
                else:
                    classes = tuple(moved.tolist())
                events.append(DriftEvent(position, kind, classes=classes))
            if shifts[i] != shifts[i - 1]:
                events.append(DriftEvent(position, "virtual"))
            if segment.label_noise != previous.label_noise:
                events.append(DriftEvent(position, "noise"))
            if segment.active_classes != previous.active_classes:
                if n_classes is None:
                    changed = None
                else:
                    everyone = tuple(range(n_classes))
                    before = previous.active_classes or everyone
                    after = segment.active_classes or everyone
                    changed = tuple(sorted(set(before) ^ set(after)))
                events.append(DriftEvent(position, "prior", classes=changed))
        return events

    def drift_points(self) -> list[int]:
        """Positions of the *real* (sustained, non-blip) concept drifts."""
        return [event.position for event in self.events() if event.kind == "real"]


class ScheduledStream(DataStream):
    """Execute a :class:`Schedule` as one seeded batch-first stream.

    Parameters
    ----------
    generator_factory:
        ``concept -> DataStream`` building one source stream per concept
        (created lazily, cached; every generator in
        :mod:`repro.streams.generators` qualifies via e.g.
        ``lambda c: RandomRBFGenerator(concept=c, seed=...)``).
    schedule:
        The declarative schedule to execute.
    imbalance:
        Schedule-level :class:`~repro.streams.imbalance.ImbalanceProfile`
        evaluated at the *emitted* position; segments may override it with a
        static ``imbalance_ratio``.  ``None`` = balanced priors.
    seed:
        Engine RNG seed (class choice, concept mixing, label noise).  The
        feature-drift direction is derived from it deterministically.
    """

    def __init__(
        self,
        generator_factory: Callable[[int], DataStream],
        schedule: Schedule,
        imbalance: ImbalanceProfile | None = None,
        seed: int | None = None,
        max_tries_per_draw: int = 4_096,
        name: str | None = None,
    ) -> None:
        self._factory = generator_factory
        first_concept = int(schedule.segments[0].concept or 0)
        probe = generator_factory(first_concept)
        if imbalance is not None and imbalance.n_classes != probe.n_classes:
            raise ValueError("imbalance profile and generator disagree on n_classes")
        for segment in schedule.segments:
            for classes in (segment.drifted_classes, segment.active_classes):
                if classes is not None and any(
                    c < 0 or c >= probe.n_classes for c in classes
                ):
                    raise ValueError(f"segment classes {classes} out of range")
        schema = StreamSchema(
            n_features=probe.n_features,
            n_classes=probe.n_classes,
            name=name or f"{probe.name}-scheduled",
        )
        super().__init__(schema, seed)
        self._schedule = schedule
        self._imbalance = imbalance
        self._max_tries = max_tries_per_draw
        self._samplers: dict[int, ClassConditionalSampler] = {
            first_concept: self._make_sampler(probe)
        }
        self._starts = np.asarray(schedule.starts(), dtype=np.int64)
        self._boundaries = self._starts[1:] if len(self._starts) > 1 else np.empty(0, np.int64)
        self._boundaries = np.append(self._boundaries, schedule.total_length)
        # Concept of each class once each segment's transition completes, and
        # the concept it leaves at the segment's start.
        self._concepts = schedule.class_concepts(probe.n_classes)
        self._previous_concepts = np.vstack([self._concepts[:1], self._concepts[:-1]])
        self._shifts = schedule.resolved_shifts()
        self._events = schedule.events(probe.n_classes)
        # Unit direction of the deterministic feature drift; its own RNG so
        # the per-instance draw budget of the engine RNG stays fixed.
        direction_rng = np.random.default_rng(
            77_003 if seed is None else 77_003 + seed
        )
        direction = direction_rng.normal(size=probe.n_features)
        self._shift_direction = direction / (np.linalg.norm(direction) + 1e-12)
        # Uniform rows drawn for positions not yet emitted (finite source
        # exhausted mid-batch); replayed before fresh draws for exact parity.
        self._uniforms = UniformReplayBuffer(columns=4)

    # ------------------------------------------------------------- properties
    @property
    def schedule(self) -> Schedule:
        return self._schedule

    @property
    def events(self) -> list[DriftEvent]:
        """Exact ground truth of the whole schedule (known upfront)."""
        return list(self._events)

    @property
    def drift_points(self) -> list[int]:
        """Positions of the *real* (sustained, non-blip) concept drifts."""
        return [e.position for e in self._events if e.kind == "real"]

    @property
    def drifted_classes(self) -> list[list[int] | None]:
        """Affected classes of each *real* drift, aligned with drift_points."""
        return [
            list(e.classes) if e.classes is not None else None
            for e in self._events
            if e.kind == "real"
        ]

    def restart(self) -> None:
        """Rewind to a fresh stream: only the first concept's sampler is
        kept, restarted; the others are rebuilt lazily when reached again,
        so a restarted stream snapshots like a new one."""
        super().restart()
        first_concept = int(self._schedule.segments[0].concept or 0)
        sampler = self._sampler(first_concept)
        sampler.restart()
        self._samplers = {first_concept: sampler}
        self._uniforms.clear()

    def _snapshot_extra(self) -> dict:
        return {"samplers": self._samplers, "uniforms": self._uniforms}

    def _restore_extra(self, extra: dict) -> None:
        snapshotted = {int(concept) for concept in extra["samplers"]}
        for concept in [c for c in self._samplers if c not in snapshotted]:
            # Samplers the snapshot never reached (restoring to an earlier
            # point) would otherwise keep their advanced source RNGs.
            del self._samplers[concept]
        for concept, sampler_state in extra["samplers"].items():
            # Samplers are created lazily per concept; instantiate any the
            # restoring instance has not reached yet, then restore in place.
            self._sampler(int(concept)).restore(sampler_state)
        self._uniforms = extra["uniforms"]

    # --------------------------------------------------------------- plumbing
    def _make_sampler(self, stream: DataStream) -> ClassConditionalSampler:
        return ClassConditionalSampler(
            stream,
            stream.n_classes,
            max_buffer=MAX_BUFFER_PER_CLASS,
            max_draws=self._max_tries,
            block_size=SOURCE_BLOCK_SIZE,
        )

    def _sampler(self, concept: int) -> ClassConditionalSampler:
        sampler = self._samplers.get(concept)
        if sampler is None:
            sampler = self._make_sampler(self._factory(concept))
            self._samplers[concept] = sampler
        return sampler

    def _segment_indices(self, positions: np.ndarray) -> np.ndarray:
        """Segment index per position; the last segment is open-ended."""
        return np.minimum(
            np.searchsorted(self._boundaries, positions, side="right"),
            len(self._schedule.segments) - 1,
        )

    def _transition_probabilities(
        self, index: int, offsets: np.ndarray
    ) -> np.ndarray:
        """P(new concept) at the given offsets into segment ``index``."""
        segment = self._schedule.segments[index]
        if segment.transition == "sudden" or segment.width == 0:
            return np.ones(offsets.shape[0])
        progress = np.minimum(offsets / segment.width, 1.0)
        if segment.transition == "incremental":
            inside = progress < 1.0
            probabilities = np.ones(offsets.shape[0])
            probabilities[inside] = 1.0 / (
                1.0 + np.exp(-4.0 * (2.0 * progress[inside] - 1.0))
            )
            return probabilities
        return progress  # gradual: linear oscillation probability

    def _segment_priors(
        self, index: int, positions: np.ndarray
    ) -> np.ndarray:
        """Target-class prior rows for positions inside segment ``index``."""
        segment = self._schedule.segments[index]
        k = self.n_classes
        if segment.imbalance_ratio is not None:
            priors = geometric_priors_batch(
                k, np.full(positions.shape[0], segment.imbalance_ratio)
            )
        elif self._imbalance is not None:
            priors = self._imbalance.priors_batch(positions)
        else:
            priors = np.full((positions.shape[0], k), 1.0 / k)
        if segment.rotation is not None:
            rotation = segment.rotation % k
            if rotation:
                priors = np.roll(priors, rotation, axis=1)
        if segment.active_classes is not None:
            mask = np.zeros(k)
            mask[list(segment.active_classes)] = 1.0
            priors = priors * mask
            priors = priors / priors.sum(axis=1, keepdims=True)
        return priors

    def _shift_magnitudes(self, index: int, offsets: np.ndarray) -> np.ndarray:
        """Feature-drift magnitude at the given offsets into segment ``index``."""
        target = self._shifts[index]
        previous = self._shifts[index - 1] if index else 0.0
        if target == previous:
            return np.full(offsets.shape[0], target)
        segment = self._schedule.segments[index]
        if segment.width == 0:
            return np.full(offsets.shape[0], target)
        progress = np.minimum(offsets / segment.width, 1.0)
        return previous + (target - previous) * progress

    # -------------------------------------------------------------- execution
    def _generate_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n == 0:
            return self._empty_batch()
        k = self.n_classes
        segments = self._schedule.segments
        positions = self._position + np.arange(n)
        u = self._uniforms.take(n, self._rng)
        segment_index = self._segment_indices(positions)

        # Vectorized per-run of constant segment: priors, transition
        # probability, feature-shift magnitude, and the top class the
        # inverse-CDF clip may land on (the largest *active* class, so the
        # floating-point clip can never resurrect a removed class).
        priors = np.empty((n, k))
        p_new = np.empty(n)
        magnitudes = np.empty(n)
        top_class = np.empty(n, dtype=np.int64)
        run_edges = np.flatnonzero(np.diff(segment_index)) + 1
        run_starts = np.concatenate([[0], run_edges, [n]])
        for r in range(run_starts.shape[0] - 1):
            lo, hi = int(run_starts[r]), int(run_starts[r + 1])
            index = int(segment_index[lo])
            offsets = positions[lo:hi] - int(self._starts[index])
            priors[lo:hi] = self._segment_priors(index, positions[lo:hi])
            p_new[lo:hi] = self._transition_probabilities(index, offsets)
            magnitudes[lo:hi] = self._shift_magnitudes(index, offsets)
            active = segments[index].active_classes
            top_class[lo:hi] = k - 1 if active is None else max(active)

        # Target class per instance (row-wise inverse CDF).
        wanted = inverse_cdf_classes(priors, u[:, 0], top=top_class)

        # Concept per instance: the wanted class's previous or new concept,
        # mixed during transitions (a class the segment does not move has
        # the same concept on both sides).
        concepts = np.where(
            u[:, 1] < p_new,
            self._concepts[segment_index, wanted],
            self._previous_concepts[segment_index, wanted],
        )

        # One sampler call per run of requests with the same concept and
        # segment; each sampler sees its requests in stream order.
        changes = np.flatnonzero(
            (concepts[1:] != concepts[:-1])
            | (segment_index[1:] != segment_index[:-1])
        )
        bounds = [0, *(changes + 1).tolist(), n]
        targets = wanted.tolist()
        parts, classes = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            x, y = self._sampler(int(concepts[lo])).serve(
                targets[lo:hi], segments[int(segment_index[lo])].active_classes
            )
            parts.append(x)
            classes += y
            if len(y) < hi - lo:
                # Finite source ran dry: emit what was produced and replay the
                # undecided uniform rows next call (terminal, chunk-exact).
                # The emitted prefix still goes through noise/shift below.
                n = len(classes)
                self._uniforms.stash(u[n:])
                u, segment_index, magnitudes = u[:n], segment_index[:n], magnitudes[:n]
                break
        features = parts[0] if len(parts) == 1 else np.concatenate(parts)
        labels = np.array(classes, dtype=np.int64)

        # Label noise: flip to a uniformly chosen *other* active class.
        noise = np.array([segment.label_noise for segment in segments])[segment_index]
        for i in np.flatnonzero(u[:, 2] < noise):
            active = segments[int(segment_index[i])].active_classes
            pool = list(active) if active is not None else list(range(k))
            if labels[i] in pool:
                pool.remove(int(labels[i]))
            if pool:
                labels[i] = pool[int(u[i, 3] * len(pool))]

        # Deterministic feature drift (virtual drift).
        shifted = magnitudes != 0.0
        if shifted.any():
            features[shifted] += (
                magnitudes[shifted, None] * self._shift_direction[None, :]
            )
        return features, labels
