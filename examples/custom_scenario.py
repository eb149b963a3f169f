"""Compose a custom benchmark scenario with the schedule DSL.

The nine built-in scenario families in ``repro.streams.scenarios`` are all
thin wrappers over the same primitive: a declarative
:class:`~repro.streams.schedule.Schedule` of :class:`Segment` objects
executed by :class:`ScheduledStream`.  This example builds a scenario none of
the presets cover — a recurring concept with a local drift on the minority
classes, a mid-stream label-noise burst, a slow feature-space slide, and a
class that disappears near the end — prints its exact ground truth, and runs
a detector over it to show the alarms lining up with the schedule.

Run with::

    python examples/custom_scenario.py
"""

from __future__ import annotations

import numpy as np

from repro.detectors import FHDDM
from repro.evaluation import PrequentialRunner, default_classifier_factory
from repro.streams import DynamicImbalance, Schedule, ScheduledStream, Segment
from repro.streams.generators import RandomRBFGenerator

N_INSTANCES = 8_000


def main() -> None:
    # Each segment declares what is true for a span of the stream; anything
    # left out (concept, feature shift) is inherited from the segment before.
    schedule = Schedule.of(
        # Warm-up on concept 0.
        Segment(length=2_000, concept=0),
        # Sudden global drift to concept 1...
        Segment(length=1_500, concept=1),
        # ...which recurs back to concept 0 through a gradual 400-instance
        # mixture window.
        Segment(length=1_500, concept=0, transition="gradual", width=400),
        # Local drift: only the two smallest classes move to concept 2, and a
        # label-noise burst corrupts 15% of labels for 800 instances.
        Segment(length=800, concept=2, drifted_classes=(3, 4), label_noise=0.15),
        # Noise ends; the feature space starts sliding (virtual drift),
        # ramping to a 0.4-magnitude offset over 500 instances.
        Segment(length=1_200, feature_shift=0.4, width=500),
        # Finally the majority class disappears from the stream entirely.
        Segment(length=1_000, active_classes=(1, 2, 3, 4)),
    )

    def factory(concept: int) -> RandomRBFGenerator:
        return RandomRBFGenerator(
            n_classes=5, n_features=20, n_centroids=25, concept=concept, seed=7
        )

    stream = ScheduledStream(
        factory,
        schedule,
        # The profile is evaluated at the *emitted* position; segments could
        # also pin a static ratio via Segment(imbalance_ratio=...).
        imbalance=DynamicImbalance(5, min_ratio=2.0, max_ratio=40.0, period=4_000),
        seed=11,
        name="custom-scenario",
    )

    print(f"Stream: {stream.name} ({stream.n_classes} classes, "
          f"{stream.n_features} features, {schedule.total_length} scheduled)")
    print("Exact ground truth (emitted-instance coordinates):")
    for event in stream.events:
        classes = "all classes" if event.classes is None else f"classes {list(event.classes)}"
        print(f"  @{event.position:>5}  {event.kind:<8} {classes}")
    print(f"Real drift points: {stream.drift_points}\n")

    # Batch generation is bit-identical to per-instance iteration — fetch a
    # chunk to eyeball the skew, then restart before the prequential run.
    _, labels = stream.generate_batch(2_000)
    print("Class counts over the first 2000 instances:",
          np.bincount(labels, minlength=5).tolist())
    stream.restart()

    runner = PrequentialRunner(
        default_classifier_factory, pretrain_size=300, chunk_size=512
    )
    result = runner.run(stream, FHDDM(), n_instances=N_INSTANCES)
    print(f"\nFHDDM over {N_INSTANCES} instances: "
          f"pmAUC={result.pmauc:.3f}, pmGM={result.pmgm:.3f}")
    print(f"Alarms at: {result.detections}")
    print("(compare against the real drift points above; alarms near the "
          "blip-free noise burst or the virtual drift are scenario-dependent)")


if __name__ == "__main__":
    main()
