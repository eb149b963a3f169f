"""Drift-heavy detector settings for the detector contract suites.

Imported by name (``from drift_heavy import detector_builders``); pytest puts
this directory on ``sys.path`` when it loads ``tests/conftest.py``.

At their registry settings the six sum/bound detectors fire in some test
streams rather than in most, and RDDM never prunes and rebuilds its
stored-error log within a few thousand rows (``max_concept_size=40 000``): an
update, snapshot or reset branch that never runs is never checked.  Under
the settings below drifts, concept resets and warnings fire within a few
hundred rows, and RDDM prunes whenever a concept outgrows 40 rows.
"""

from __future__ import annotations

import functools

from repro.detectors import DDM, ECDDWT, FHDDM, HDDM_A, RDDM, PageHinkley
from repro.protocol.registry import build_detector

DRIFT_HEAVY = {
    "DDM": lambda: DDM(min_num_instances=5),
    "RDDM": lambda: RDDM(
        min_num_instances=5,
        max_concept_size=40,
        min_size_stable_concept=20,
        warning_limit=3,
    ),
    "ECDD": lambda: ECDDWT(lambda_=0.3, control_limit=1.5, min_instances=5),
    "PH": lambda: PageHinkley(
        min_instances=5, delta=0.001, threshold=2.0, alpha=0.95
    ),
    "FHDDM": lambda: FHDDM(window_size=8, delta=0.05),
    "HDDM-A": lambda: HDDM_A(drift_confidence=0.01, warning_confidence=0.05),
}


def detector_builders(names, n_features: int, n_classes: int) -> dict:
    """Zero-argument detector builders by test id.

    Each registry detector in ``names`` is built at its registry setting
    under its own name, and each drift-heavy setting under
    ``<name>-drift-heavy``.
    """
    return {
        **{
            name: functools.partial(build_detector, name, n_features, n_classes)
            for name in names
        },
        **{f"{name}-drift-heavy": build for name, build in DRIFT_HEAVY.items()},
    }
