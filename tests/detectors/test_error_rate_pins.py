"""Pinned outputs of the error-rate detectors on one seeded error stream.

Each of the nine registry error-rate detectors below, and each drift-heavy
setting of ``tests/drift_heavy.py``, is fed one seeded 0/1 error stream of
20 000 rows whose error rate shifts seven times.  Its detections, final
observation count and warning flag, and how often it was in warning are
pinned in ``error_rate_pins.json``, through both entry points: the per-row
``step`` loop (warnings counted per row) and ``step_batch`` over uneven
chunks (warnings counted at chunk ends).  The step loop's final state is
pinned too, as the SHA-256 of its strict-JSON snapshot, so a last-bit
change to a stored statistic fails even where no decision flips.

The chunk-exact property compares ``step_batch`` with ``step``, and both run
the detector's one update rule, ``add_element``, so it cannot see a change
to that rule; these pins can.  The drift-heavy settings make RDDM prune and
rebuild its stored-error log hundreds of times, which the 4 000-row goldens
at registry settings never reach.  The pins change only together with the
update rule they pin (the state digest also with the detector's state
layout), in a change that says why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from drift_heavy import detector_builders
from repro.core.jsonio import dumps_strict

PINS = json.loads((Path(__file__).parent / "error_rate_pins.json").read_text())

#: The registry error-rate detectors pinned here (HDDM-W's storm is pinned
#: by its golden until its fix lands).
NAMES = ("ADWIN", "DDM", "EDDM", "RDDM", "HDDM-A", "FHDDM", "WSTD", "PH", "ECDD")
BUILDERS = detector_builders(NAMES, 1, 2)
#: ``step_batch`` chunk sizes, cycled: single rows, odd sizes and one chunk
#: longer than most concepts of the drift-heavy settings.
CHUNKS = (1, 7, 64, 500, 3, 1024)


def error_stream() -> np.ndarray:
    """The pinned input: 0/1 errors, one rate per 2 500-row piece."""
    stream = PINS["stream"]
    rates = np.repeat(stream["rates"], stream["piece"])
    rng = np.random.default_rng(stream["seed"])
    return (rng.random(rates.shape[0]) < rates).astype(np.int64)


@pytest.fixture(scope="module")
def errors() -> np.ndarray:
    return error_stream()


def test_pins_cover_every_setting():
    assert set(PINS["pins"]) == set(BUILDERS)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_step_loop_matches_pin(name, errors):
    detector = BUILDERS[name]()
    x = np.zeros(1)
    warning_rows = 0
    for error in errors.tolist():
        detector.step(x, error, 0)
        warning_rows += detector.in_warning
    pin = PINS["pins"][name]
    assert detector.detections == pin["detections"]
    assert detector.n_observations == pin["n_observations"]
    assert detector.in_warning == pin["in_warning"]
    assert warning_rows == pin["warning_rows"]
    state = dumps_strict(detector.snapshot()).encode("utf-8")
    assert hashlib.sha256(state).hexdigest() == pin["state_sha256"]


@pytest.mark.parametrize("name", list(BUILDERS))
def test_step_batch_matches_pin(name, errors):
    detector = BUILDERS[name]()
    n = errors.shape[0]
    features = np.zeros((n, 1))
    predictions = np.zeros(n, dtype=np.int64)
    start = 0
    warning_chunk_ends = 0
    for size in itertools.cycle(CHUNKS):
        if start >= n:
            break
        stop = start + size
        detector.step_batch(
            features[start:stop], errors[start:stop], predictions[start:stop]
        )
        warning_chunk_ends += detector.in_warning
        start = stop
    pin = PINS["pins"][name]
    assert detector.detections == pin["detections"]
    assert detector.n_observations == pin["n_observations"]
    assert detector.in_warning == pin["in_warning"]
    assert warning_chunk_ends == pin["warning_chunk_ends"]
