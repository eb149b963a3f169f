"""Property suite: snapshot → restore → replay is bit-identical to no pause.

Hypothesis hunts, across the full detector zoo × random streams × random
checkpoint positions, for any state the snapshot contract fails to carry:

* detector flags, detection positions, blamed classes, and drift/warning
  state after a mid-stream snapshot/JSON/restore must equal the
  uninterrupted run;
* RBM-IM's learned parameters (weights, biases, momenta, scaler bounds)
  must survive the round-trip bit for bit — its whole value is trained
  state;
* classifier predictions and probability scores after a mid-training
  snapshot must equal uninterrupted training;
* a restored stream must emit the bit-identical tail for random scenario
  configurations and checkpoint positions.

The six sum/bound detectors also run at the drift-heavy settings of
``tests/drift_heavy.py``, so checkpoints land in states their registry
settings never reach, such as just after an RDDM prune-and-rebuild.

Every snapshot goes through ``dumps_strict``/``loads_strict`` — the exact
bytes a persisted :class:`~repro.evaluation.checkpoint.RunnerCheckpoint`
reads back from disk.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drift_heavy import detector_builders
from repro.core.jsonio import dumps_strict, loads_strict
from repro.detectors.base import DriftDetector
from repro.protocol.registry import DETECTOR_NAMES, build_detector
from repro.streams.scenarios import SCENARIO_BUILDERS, build_scenario_stream

N_CLASSES = 4
N_FEATURES = 5
DETECTORS = [name for name in DETECTOR_NAMES if name != "none"]
#: RBM-IM trains an RBM per mini-batch, so its property run uses fewer
#: examples than the cheap error-rate detectors.
MAX_EXAMPLES = {"RBM-IM": 8}
#: Detector builders by test id (registry and drift-heavy settings).
BUILDERS = detector_builders(DETECTORS, N_FEATURES, N_CLASSES)


def _json_roundtrip(snapshot: dict) -> dict:
    return loads_strict(dumps_strict(snapshot))


@st.composite
def checkpointed_streams(draw):
    """A drifting error/feature stream plus a random checkpoint position."""
    n = draw(st.integers(min_value=2, max_value=400))
    cut = draw(st.integers(min_value=1, max_value=n - 1))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_pieces = draw(st.integers(min_value=1, max_value=4))
    probabilities = [
        draw(st.floats(min_value=0.0, max_value=0.9)) for _ in range(n_pieces)
    ]
    return n, cut, seed, tuple(probabilities)


def _materialise(n, seed, probabilities):
    rng = np.random.default_rng(seed)
    piece = (n + len(probabilities) - 1) // len(probabilities)
    error_probability = np.repeat(probabilities, piece)[:n]
    features = rng.random((n, N_FEATURES))
    # Shift the feature distribution piecewise too, so instance-based
    # detectors (RBM-IM) accumulate non-trivial state before the cut.
    features[n // 2 :] = 0.8 + 0.2 * features[n // 2 :]
    labels = rng.integers(0, N_CLASSES, n)
    is_error = rng.random(n) < error_probability
    offsets = rng.integers(1, N_CLASSES, n)
    predictions = np.where(is_error, (labels + offsets) % N_CLASSES, labels)
    return features, labels.astype(np.int64), predictions.astype(np.int64)


# -------------------------------------------------------------- detector zoo
def _assert_detector_resumes(build, n, cut, seed, probabilities):
    features, labels, predictions = _materialise(n, seed, probabilities)

    uninterrupted = build()
    full_flags = uninterrupted.step_batch(features, labels, predictions)

    live = build()
    head_flags = live.step_batch(
        features[:cut], labels[:cut], predictions[:cut]
    )
    resumed = DriftDetector.from_snapshot(_json_roundtrip(live.snapshot()))
    tail_flags = resumed.step_batch(
        features[cut:], labels[cut:], predictions[cut:]
    )

    np.testing.assert_array_equal(
        np.concatenate([head_flags, tail_flags]), full_flags
    )
    assert resumed.detections == uninterrupted.detections
    assert resumed.detection_classes == uninterrupted.detection_classes
    assert resumed.n_observations == uninterrupted.n_observations
    assert resumed.in_drift == uninterrupted.in_drift
    assert resumed.in_warning == uninterrupted.in_warning
    assert resumed.drifted_classes == uninterrupted.drifted_classes


@pytest.mark.parametrize("name", list(BUILDERS))
def test_detector_snapshot_restore_replay_bit_identical(name: str):
    @settings(max_examples=MAX_EXAMPLES.get(name, 20), deadline=None)
    @given(stream=checkpointed_streams())
    def run(stream):
        n, cut, seed, probabilities = stream
        _assert_detector_resumes(BUILDERS[name], n, cut, seed, probabilities)

    run()


@settings(max_examples=8, deadline=None)
@given(stream=checkpointed_streams())
def test_rbm_im_trained_state_survives_bit_for_bit(stream):
    """Every learned float of RBM-IM equals the uninterrupted run's."""
    n, cut, seed, probabilities = stream
    features, labels, predictions = _materialise(n, seed, probabilities)

    uninterrupted = build_detector("RBM-IM", N_FEATURES, N_CLASSES)
    uninterrupted.step_batch(features, labels, predictions)

    live = build_detector("RBM-IM", N_FEATURES, N_CLASSES)
    live.step_batch(features[:cut], labels[:cut], predictions[:cut])
    resumed = DriftDetector.from_snapshot(_json_roundtrip(live.snapshot()))
    resumed.step_batch(features[cut:], labels[cut:], predictions[cut:])

    reference_rbm = uninterrupted._rbm
    resumed_rbm = resumed._rbm
    np.testing.assert_array_equal(resumed_rbm._Wvz, reference_rbm._Wvz)
    np.testing.assert_array_equal(resumed_rbm._bias_vz, reference_rbm._bias_vz)
    np.testing.assert_array_equal(resumed_rbm._b, reference_rbm._b)
    np.testing.assert_array_equal(resumed_rbm._vel_Wvz, reference_rbm._vel_Wvz)
    np.testing.assert_array_equal(
        resumed_rbm._vel_bias_vz, reference_rbm._vel_bias_vz
    )
    np.testing.assert_array_equal(resumed_rbm._vel_b, reference_rbm._vel_b)
    np.testing.assert_array_equal(resumed._scaler._min, uninterrupted._scaler._min)
    np.testing.assert_array_equal(resumed._scaler._max, uninterrupted._scaler._max)


# --------------------------------------------------------------- classifiers
def _classifier_factories():
    from repro.classifiers.naive_bayes import GaussianNaiveBayes
    from repro.classifiers.perceptron import OnlinePerceptron
    from repro.evaluation.experiment import default_classifier_factory

    return {
        "nb": lambda: GaussianNaiveBayes(
            n_features=N_FEATURES, n_classes=N_CLASSES
        ),
        "perceptron": lambda: OnlinePerceptron(
            n_features=N_FEATURES, n_classes=N_CLASSES, seed=42
        ),
        "tree": lambda: default_classifier_factory(N_FEATURES, N_CLASSES),
    }


@pytest.mark.parametrize("kind", sorted(_classifier_factories()))
def test_classifier_predictions_survive_snapshot(kind: str):
    factory = _classifier_factories()[kind]

    @settings(max_examples=10, deadline=None)
    @given(stream=checkpointed_streams())
    def run(stream):
        n, cut, seed, probabilities = stream
        features, labels, _ = _materialise(n, seed, probabilities)

        # Classifier updates are per-batch, so the uninterrupted reference
        # must see the same chunking as the checkpointed run; the prequential
        # runner feeds identical chunk boundaries on resume for this reason.
        uninterrupted = factory()
        uninterrupted.partial_fit_batch(features[:cut], labels[:cut])
        uninterrupted.partial_fit_batch(features[cut:], labels[cut:])

        live = factory()
        live.partial_fit_batch(features[:cut], labels[:cut])
        resumed = type(live).from_snapshot(_json_roundtrip(live.snapshot()))
        resumed.partial_fit_batch(features[cut:], labels[cut:])

        probe = np.random.default_rng(seed ^ 0xABCD).random((32, N_FEATURES))
        np.testing.assert_array_equal(
            resumed.predict_proba_batch(probe),
            uninterrupted.predict_proba_batch(probe),
        )
        np.testing.assert_array_equal(
            resumed.predict_batch(probe), uninterrupted.predict_batch(probe)
        )

    run()


# -------------------------------------------------------------- stream tails
@settings(max_examples=15, deadline=None)
@given(
    scenario=st.sampled_from(sorted(SCENARIO_BUILDERS)),
    family=st.sampled_from(["agrawal", "hyperplane", "rbf", "randomtree"]),
    seed=st.integers(min_value=0, max_value=2**16),
    head=st.integers(min_value=1, max_value=700),
)
def test_stream_tail_survives_snapshot(scenario, family, seed, head):
    def make():
        return build_scenario_stream(
            scenario,
            family=family,
            n_classes=3,
            n_instances=1_000,
            n_drifts=2,
            max_imbalance_ratio=20.0,
            seed=seed,
        ).stream

    stream = make()
    stream.generate_batch(head)
    snapshot = _json_roundtrip(stream.snapshot())
    expected_x, expected_y = stream.generate_batch(200)

    fresh = make()
    fresh.restore(snapshot)
    got_x, got_y = fresh.generate_batch(200)
    np.testing.assert_array_equal(got_x, expected_x)
    np.testing.assert_array_equal(got_y, expected_y)
