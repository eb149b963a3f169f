"""RBM-IM: the paper's core contribution.

A skew-insensitive Restricted Boltzmann Machine (:class:`SkewInsensitiveRBM`)
with a class layer and class-balanced loss is trained online on mini-batches.
Per-class reconstruction errors, their ADWIN-windowed trends, and a
first-difference Granger causality test combine into the :class:`RBMIM`
drift detector capable of detecting global *and* local (per-class) drifts in
multi-class imbalanced data streams.

The re-exports below resolve lazily (PEP 562), as in :mod:`repro`: the
detectors import the shared helpers under ``repro.core`` (windows,
snapshots), and :mod:`repro.core.detector` imports the detectors, so an
eager package ``__init__`` would close an import cycle.
"""

from __future__ import annotations

import importlib

#: Lazily-resolved re-exports: attribute name -> providing module.
_LAZY_EXPORTS = {
    "RBMIM": "repro.core.detector",
    "RBMIMConfig": "repro.core.detector",
    "GrangerResult": "repro.core.granger",
    "granger_causality": "repro.core.granger",
    "first_differences": "repro.core.granger",
    "ClassBalancedWeighter": "repro.core.loss",
    "class_balanced_weights": "repro.core.loss",
    "effective_number": "repro.core.loss",
    "RBMConfig": "repro.core.rbm",
    "SkewInsensitiveRBM": "repro.core.rbm",
    "OnlineMinMaxScaler": "repro.core.scaling",
    "TrendTracker": "repro.core.trend",
}

__all__ = list(_LAZY_EXPORTS)


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
