"""Synthetic data-stream generators.

These are pure Python/NumPy re-implementations of the MOA generators used in
the paper's evaluation (Agrawal, Hyperplane, RandomRBF, RandomTree) plus SEA,
the cheap threshold stream that the throughput benchmark and the tests use.

Every generator derives from :class:`repro.streams.base.DataStream`, exposes a
``concept`` parameter (or equivalent) so that the schedule engine in
:mod:`repro.streams.schedule` can build one source per concept, and is
deterministic for a fixed seed.
"""

from repro.streams.generators.agrawal import AgrawalGenerator
from repro.streams.generators.hyperplane import HyperplaneGenerator
from repro.streams.generators.random_tree import RandomTreeGenerator
from repro.streams.generators.rbf import RandomRBFGenerator
from repro.streams.generators.sea import SEAGenerator

__all__ = [
    "AgrawalGenerator",
    "HyperplaneGenerator",
    "RandomRBFGenerator",
    "RandomTreeGenerator",
    "SEAGenerator",
]
