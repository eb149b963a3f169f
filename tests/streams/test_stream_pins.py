"""Pinned realisations of the scenario streams and the Table I surrogates.

Batch/instance parity (``test_batch_parity.py``) runs the same sampler on
both of its sides, so a change to class-conditional sampling that alters
both still passes it.  These pins fix what the streams emit: each scenario
builder (1-9) for each of the four artificial families at 5 classes, and
each Table I surrogate, is read for 3 000 rows at seed 0 in 1 024-row
chunks.  The labels are pinned exactly, as the SHA-256 of their
little-endian int64 bytes; each feature column by its sum and its sum of
squares at a relative tolerance of 1e-12, which absorbs last-bit
differences between libm implementations but not a single different row.

The pins in ``stream_pins.json`` change only with a change that is meant
to alter a stream's realisation, and that change says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.streams.real_world import real_world_names, real_world_stream
from repro.streams.scenarios import ARTIFICIAL_FAMILIES, SCENARIO_BUILDERS

PINS = json.loads((Path(__file__).parent / "stream_pins.json").read_text())

N_ROWS = 3_000
CHUNK = 1_024
N_CLASSES = 5
SEED = 0
RTOL = 1e-12


def _builders() -> dict:
    builders = {
        f"scenario{scenario}-{family}": (
            lambda scenario=scenario, family=family: SCENARIO_BUILDERS[scenario](
                family, N_CLASSES, n_instances=N_ROWS, seed=SEED
            )
        )
        for scenario in sorted(SCENARIO_BUILDERS)
        for family in sorted(ARTIFICIAL_FAMILIES)
    }
    builders.update(
        {
            f"surrogate-{name}": (
                lambda name=name: real_world_stream(
                    name, n_instances=N_ROWS, seed=SEED
                )
            )
            for name in real_world_names()
        }
    )
    return builders


BUILDERS = _builders()


def stream_pin(name: str) -> dict:
    """What ``stream_pins.json`` records for the stream ``name``."""
    stream = BUILDERS[name]().stream
    parts = [
        stream.generate_batch(min(CHUNK, N_ROWS - start))
        for start in range(0, N_ROWS, CHUNK)
    ]
    features = np.vstack([x for x, _ in parts])
    labels = np.concatenate([y for _, y in parts])
    return {
        "rows": int(labels.shape[0]),
        "labels_sha256": hashlib.sha256(
            labels.astype("<i8").tobytes()
        ).hexdigest(),
        "sum": features.sum(axis=0).tolist(),
        "sum_sq": (features * features).sum(axis=0).tolist(),
    }


def test_pins_cover_every_stream():
    assert set(PINS) == set(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stream_matches_pin(name):
    observed, pin = stream_pin(name), PINS[name]
    assert observed["rows"] == pin["rows"] == N_ROWS
    assert observed["labels_sha256"] == pin["labels_sha256"]
    np.testing.assert_allclose(observed["sum"], pin["sum"], rtol=RTOL, atol=0)
    np.testing.assert_allclose(
        observed["sum_sq"], pin["sum_sq"], rtol=RTOL, atol=0
    )
