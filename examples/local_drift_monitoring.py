"""Local drift monitoring: which classes changed, and when?

Scenario 3 of the paper is the hardest setting: a real concept drift affects
only a subset of (minority) classes while the rest of the stream stays
stationary.  Standard detectors monitor a single global statistic and miss
such changes; RBM-IM tracks the reconstruction-error trend of every class
independently and reports *which* classes drifted.

This example feeds RBM-IM directly (without a classifier) with a stream in
which only one class changes its distribution halfway through, then prints
the per-class reconstruction-error trajectory and the attribution of each
alarm.

Run with::

    python examples/local_drift_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro.core import RBMIM, RBMIMConfig
from repro.streams import Schedule, ScheduledStream, Segment, StaticImbalance
from repro.streams.generators import RandomRBFGenerator

N_CLASSES = 4
N_FEATURES = 8
DRIFT_POSITION = 3_000
N_INSTANCES = 6_000
DRIFTED_CLASS = 3


def build_stream() -> ScheduledStream:
    """A 4-class stream where only class 3 (a minority class) drifts."""

    def concept(index: int) -> RandomRBFGenerator:
        return RandomRBFGenerator(
            n_classes=N_CLASSES,
            n_features=N_FEATURES,
            n_centroids=12,
            concept=index,
            seed=5,
        )

    schedule = Schedule.of(
        Segment(length=DRIFT_POSITION, concept=0),
        Segment(
            length=N_INSTANCES - DRIFT_POSITION,
            concept=6,
            drifted_classes=(DRIFTED_CLASS,),
        ),
    )
    return ScheduledStream(
        concept, schedule, imbalance=StaticImbalance(N_CLASSES, 10.0), seed=9
    )


def main() -> None:
    stream = build_stream()
    detector = RBMIM(N_FEATURES, N_CLASSES, RBMIMConfig(batch_size=25, seed=7))

    print(f"Monitoring {N_CLASSES} classes; real drift on class {DRIFTED_CLASS} "
          f"at instance {DRIFT_POSITION}.\n")

    # As in the paper, the detector trains itself on the first batch of the
    # stream before monitoring starts.
    warm_up = stream.take(200)
    detector.warm_start(
        np.vstack([inst.x for inst in warm_up]),
        np.asarray([inst.y for inst in warm_up]),
    )

    alarms: list[tuple[int, set[int]]] = []
    error_log: list[tuple[int, np.ndarray]] = []
    for position in range(len(warm_up), N_INSTANCES):
        instance = stream.next_instance()
        # The detector consumes raw labelled instances; the third argument
        # (the classifier's prediction) is irrelevant for RBM-IM.
        if detector.step(instance.x, instance.y, instance.y):
            alarms.append((position, set(detector.drifted_classes or set())))
        if position % 500 == 499:
            error_log.append((position + 1, detector.last_per_class_errors))

    print("Per-class reconstruction error over time (one row per 500 instances):")
    header = "  position " + "".join(f"  class_{k:>2d}" for k in range(N_CLASSES))
    print(header)
    for position, errors in error_log:
        row = f"  {position:8d} "
        row += "".join(
            "     -   " if np.isnan(value) else f"  {value:7.3f}" for value in errors
        )
        print(row)

    print("\nDrift alarms (position -> classes blamed):")
    if not alarms:
        print("  none")
    for position, classes in alarms:
        timing = "after" if position >= DRIFT_POSITION else "BEFORE"
        print(f"  {position:6d} -> {sorted(classes)}   ({timing} the injected drift)")
    print(
        "\nNote: under heavy class imbalance the alarm may be attributed to a "
        "neighbouring class\nwhose learned representation was disturbed by the "
        "drifted one; on balanced streams the\nattribution matches the drifted "
        "class exactly (see tests/core/test_rbmim_detector.py)."
    )


if __name__ == "__main__":
    main()
