"""Cyber-security motivation scenario: evolving rare attacks in network traffic.

The paper motivates multi-class imbalanced drift detection with intrusion
detection: benign traffic dominates the stream, several attack families appear
with very different (and low) frequencies, and attackers *change their
behaviour over time* to evade detection — a local concept drift confined to
the attack classes, while benign traffic remains stationary.

This example synthesises such a stream (one benign class + three attack
families with a 200:1 overall imbalance), lets the attack classes drift one
after another, and compares how a standard detector (RDDM), an imbalance-aware
baseline (DDM-OCI), and RBM-IM drive the same cost-sensitive classifier.

Run with::

    python examples/cybersecurity_intrusion_stream.py
"""

from __future__ import annotations

from repro.core import RBMIM, RBMIMConfig
from repro.detectors import DDM_OCI, RDDM
from repro.evaluation import PrequentialRunner, default_classifier_factory
from repro.streams import Schedule, ScheduledStream, Segment, StaticImbalance
from repro.streams.generators import RandomRBFGenerator
from repro.streams.scenarios import ScenarioStream

N_CLASSES = 4  # 0 = benign, 1..3 = attack families
N_FEATURES = 12
N_INSTANCES = 8_000
FIRST_DRIFT = 3_000
SECOND_DRIFT = 5_500


def build_intrusion_stream(seed: int = 17) -> ScenarioStream:
    """Benign-dominated traffic where attack families drift one by one."""

    def concept(index: int) -> RandomRBFGenerator:
        return RandomRBFGenerator(
            n_classes=N_CLASSES,
            n_features=N_FEATURES,
            n_centroids=16,
            concept=index,
            seed=seed,
        )

    schedule = Schedule.of(
        Segment(length=FIRST_DRIFT, concept=0),
        # First drift: attack family 3 (the rarest) changes its signature.
        Segment(length=SECOND_DRIFT - FIRST_DRIFT, concept=4, drifted_classes=(3,)),
        # Second drift: attack families 2 and 3 change together; benign
        # traffic and family 1 keep their original behaviour throughout.
        Segment(
            length=N_INSTANCES - SECOND_DRIFT, concept=8, drifted_classes=(2, 3)
        ),
    )
    stream = ScheduledStream(
        concept,
        schedule,
        # Benign traffic outnumbers the rarest attack family ~200:1.
        imbalance=StaticImbalance(N_CLASSES, 200.0),
        seed=seed,
        name="intrusion-detection",
    )
    return ScenarioStream(
        stream=stream,
        drift_points=stream.drift_points,
        drifted_classes=stream.drifted_classes,
        name="intrusion-detection",
        n_instances=N_INSTANCES,
    )


def main() -> None:
    scenario = build_intrusion_stream()
    print("Simulated intrusion-detection stream")
    print(f"  classes: benign + {N_CLASSES - 1} attack families, IR = 200")
    print(f"  attack behaviour changes at {scenario.drift_points} "
          f"(classes {scenario.drifted_classes})\n")

    runner = PrequentialRunner(default_classifier_factory, pretrain_size=300)
    detectors = {
        "RDDM (standard)": RDDM(),
        "DDM-OCI (imbalance-aware)": DDM_OCI(n_classes=N_CLASSES),
        "RBM-IM (this paper)": RBMIM(
            N_FEATURES, N_CLASSES, RBMIMConfig(batch_size=50, seed=17)
        ),
    }

    print(f"{'detector':28s} {'pmAUC':>7s} {'pmGM':>7s} {'#alarms':>8s}  alarm positions")
    for name, detector in detectors.items():
        scenario.stream.restart()
        result = runner.run(
            scenario, detector, n_instances=N_INSTANCES, detector_name=name
        )
        positions = ", ".join(str(p) for p in result.detections[:6])
        if len(result.detections) > 6:
            positions += ", ..."
        print(
            f"{name:28s} {result.pmauc:7.3f} {result.pmgm:7.3f} "
            f"{len(result.detections):8d}  [{positions}]"
        )

    print("\nInterpretation: the standard detector reacts only to changes in the")
    print("dominant benign class; the per-class detectors can also react when a")
    print("rare attack family changes its behaviour.")


if __name__ == "__main__":
    main()
