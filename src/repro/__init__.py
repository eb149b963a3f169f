"""Reproduction of "Concept Drift Detection from Multi-Class Imbalanced Data Streams".

The package provides:

* :mod:`repro.core` — RBM-IM, the trainable skew-insensitive drift detector;
* :mod:`repro.streams` — stream generators, drift injection, imbalance control,
  the paper's benchmark scenarios, and real-world surrogates;
* :mod:`repro.detectors` — standard and imbalance-aware baseline detectors;
* :mod:`repro.classifiers` — streaming classifiers, including the paper's
  cost-sensitive perceptron tree;
* :mod:`repro.metrics` — prequential multi-class AUC / G-mean and drift scoring;
* :mod:`repro.evaluation` — the prequential harness, grid cell tasks, the
  paper's default classifier, statistical tests, and online hyper-parameter
  tuning;
* :mod:`repro.protocol` — the end-to-end, resumable reproduction of the
  paper's protocol (``python -m repro.protocol run``);
* :mod:`repro.analysis` — the stdlib-only invariant linter that enforces the
  repo's determinism / durability / chunk-exactness contracts
  (``python -m repro.analysis --strict src/repro``).

Quick start::

    from repro.core import RBMIM, RBMIMConfig
    from repro.evaluation import PrequentialRunner, default_classifier_factory
    from repro.streams import scenario_local_drift

    scenario = scenario_local_drift(n_classes=5, n_drifted_classes=1, seed=1)
    detector = RBMIM(scenario.n_features, scenario.n_classes, RBMIMConfig(seed=1))
    runner = PrequentialRunner(default_classifier_factory)
    result = runner.run(scenario, detector, n_instances=10_000)
    print(result.pmauc, result.detections)

The convenience re-exports below resolve lazily (PEP 562): importing
``repro`` itself pulls in **no third-party dependency**, so the stdlib-only
:mod:`repro.analysis` linter runs in environments without NumPy (e.g. the
dependency-free CI lint job).  ``from repro import RBMIM`` still works — the
heavy subpackage is imported on first attribute access.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

#: Lazily-resolved convenience exports: attribute name -> providing module.
_LAZY_EXPORTS = {
    "RBMIM": "repro.core",
    "RBMIMConfig": "repro.core",
    "SkewInsensitiveRBM": "repro.core",
    "PrequentialRunner": "repro.evaluation",
    "make_artificial_stream": "repro.streams",
    "real_world_stream": "repro.streams",
    "scenario_global_drift": "repro.streams",
    "scenario_local_drift": "repro.streams",
    "scenario_role_switching": "repro.streams",
}

__all__ = [*sorted(_LAZY_EXPORTS), "__version__"]


def __getattr__(name: str):
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
