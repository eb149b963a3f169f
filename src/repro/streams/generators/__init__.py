"""Synthetic data-stream generators.

These are pure Python/NumPy re-implementations of the MOA generators used in
the paper's evaluation (Agrawal, Hyperplane, RandomRBF, RandomTree) plus a set
of additional classic stream generators (SEA, Sine, STAGGER, LED, Waveform,
Mixed) that are useful for tests, examples, and ablations.

Every generator derives from :class:`repro.streams.base.DataStream`, exposes a
``concept`` parameter (or equivalent) so that the schedule engine in
:mod:`repro.streams.schedule` can build one source per concept, and is
deterministic for a fixed seed.
"""

from repro.streams.generators.agrawal import AgrawalGenerator
from repro.streams.generators.hyperplane import HyperplaneGenerator
from repro.streams.generators.led import LEDGenerator
from repro.streams.generators.mixed import MixedGenerator
from repro.streams.generators.random_tree import RandomTreeGenerator
from repro.streams.generators.rbf import RandomRBFGenerator
from repro.streams.generators.sea import SEAGenerator
from repro.streams.generators.sine import SineGenerator
from repro.streams.generators.stagger import StaggerGenerator
from repro.streams.generators.waveform import WaveformGenerator

__all__ = [
    "AgrawalGenerator",
    "HyperplaneGenerator",
    "LEDGenerator",
    "MixedGenerator",
    "RandomRBFGenerator",
    "RandomTreeGenerator",
    "SEAGenerator",
    "SineGenerator",
    "StaggerGenerator",
    "WaveformGenerator",
]
