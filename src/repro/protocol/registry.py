"""Named, picklable factories for every detector in the repo.

The protocol pipeline fans cells out over process pools, so detector
construction must be expressible as module-level callables (lambdas and
closures cannot cross process boundaries).  This registry maps a stable
detector *name* — the string that appears in :class:`~repro.protocol.spec.
ProtocolSpec`, in stored result records, and in golden-test files — to a
module-level builder ``(n_features, n_classes) -> DriftDetector``.

The registry covers the full zoo: the ten standard error-rate detectors, the
two imbalance-aware baselines, the paper's RBM-IM, and the ``"none"``
detector-less baseline.  It is the one place where a compared detector is
configured: the protocol, the benchmark harnesses, the integration tests and
the examples all build their detectors here, so a settings fix is one edit
in this module.  :data:`PAPER_DETECTORS` names the paper's line-up.
"""

from __future__ import annotations

from typing import Callable

from repro.core.detector import RBMIM, RBMIMConfig
from repro.detectors import (
    ADWIN,
    DDM,
    DDM_OCI,
    ECDDWT,
    EDDM,
    FHDDM,
    HDDM_A,
    HDDM_W,
    WSTD,
    PageHinkley,
    PerfSim,
    RDDM,
    DriftDetector,
)

__all__ = ["DETECTOR_NAMES", "PAPER_DETECTORS", "detector_factory", "build_detector"]

#: A detector builder receives (n_features, n_classes).
DetectorBuilder = Callable[[int, int], "DriftDetector | None"]


def _make_adwin(n_features: int, n_classes: int) -> DriftDetector:
    return ADWIN(delta=0.002)


def _make_ddm(n_features: int, n_classes: int) -> DriftDetector:
    return DDM()


def _make_eddm(n_features: int, n_classes: int) -> DriftDetector:
    return EDDM()


def _make_rddm(n_features: int, n_classes: int) -> DriftDetector:
    return RDDM()


def _make_hddm_a(n_features: int, n_classes: int) -> DriftDetector:
    return HDDM_A()


def _make_hddm_w(n_features: int, n_classes: int) -> DriftDetector:
    return HDDM_W()


def _make_fhddm(n_features: int, n_classes: int) -> DriftDetector:
    return FHDDM(window_size=100, delta=1e-6)


def _make_wstd(n_features: int, n_classes: int) -> DriftDetector:
    return WSTD(window_size=75, drift_significance=0.003)


def _make_page_hinkley(n_features: int, n_classes: int) -> DriftDetector:
    return PageHinkley()


def _make_ecdd(n_features: int, n_classes: int) -> DriftDetector:
    return ECDDWT()


def _make_perfsim(n_features: int, n_classes: int) -> DriftDetector:
    return PerfSim(n_classes=n_classes, batch_size=500, lambda_=0.2)


def _make_ddm_oci(n_features: int, n_classes: int) -> DriftDetector:
    return DDM_OCI(n_classes=n_classes)


def _make_rbm_im(n_features: int, n_classes: int) -> DriftDetector:
    config = RBMIMConfig(batch_size=50, seed=11)
    return RBMIM(n_features=n_features, n_classes=n_classes, config=config)


_REGISTRY: dict[str, DetectorBuilder | None] = {
    "ADWIN": _make_adwin,
    "DDM": _make_ddm,
    "EDDM": _make_eddm,
    "RDDM": _make_rddm,
    "HDDM-A": _make_hddm_a,
    "HDDM-W": _make_hddm_w,
    "FHDDM": _make_fhddm,
    "WSTD": _make_wstd,
    "PH": _make_page_hinkley,
    "ECDD": _make_ecdd,
    "PerfSim": _make_perfsim,
    "DDM-OCI": _make_ddm_oci,
    "RBM-IM": _make_rbm_im,
    "none": None,
}

#: All registered detector names, in registry order ("none" last).
DETECTOR_NAMES: tuple[str, ...] = tuple(_REGISTRY)

#: The six detectors the paper compares, in its order: three standard
#: detectors, the two imbalance-aware baselines, and RBM-IM.
PAPER_DETECTORS: tuple[str, ...] = (
    "WSTD",
    "RDDM",
    "FHDDM",
    "PerfSim",
    "DDM-OCI",
    "RBM-IM",
)


def detector_factory(name: str) -> DetectorBuilder | None:
    """The module-level builder registered under ``name`` (``None`` = baseline)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown detector {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None


def build_detector(
    name: str, n_features: int, n_classes: int
) -> "DriftDetector | None":
    """Instantiate the named detector for a stream's shape."""
    builder = detector_factory(name)
    if builder is None:
        return None
    return builder(n_features, n_classes)
