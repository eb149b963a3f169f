"""Unit tests for the skew-insensitive RBM."""

import numpy as np
import pytest

from repro.core.rbm import RBMConfig, SkewInsensitiveRBM
from repro.core.reconstruction import reconstruction_errors_from_hidden


def make_rbm(n_visible=6, n_hidden=4, n_classes=3, **overrides):
    config = RBMConfig(
        n_visible=n_visible,
        n_hidden=n_hidden,
        n_classes=n_classes,
        seed=0,
        **overrides,
    )
    return SkewInsensitiveRBM(config)


class TestRBMConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RBMConfig(n_visible=0, n_hidden=2, n_classes=2)
        with pytest.raises(ValueError):
            RBMConfig(n_visible=2, n_hidden=2, n_classes=1)
        with pytest.raises(ValueError):
            RBMConfig(n_visible=2, n_hidden=2, n_classes=2, learning_rate=0.0)
        with pytest.raises(ValueError):
            RBMConfig(n_visible=2, n_hidden=2, n_classes=2, cd_steps=0)
        with pytest.raises(ValueError):
            RBMConfig(n_visible=2, n_hidden=2, n_classes=2, momentum=1.0)


def packed_rows(X, y, n_classes=3):
    """``[X | one_hot(y)]`` rows, as RBM-IM packs a mini-batch."""
    vz = np.zeros((X.shape[0], X.shape[1] + n_classes))
    vz[:, : X.shape[1]] = X
    vz[np.arange(len(y)), X.shape[1] + np.asarray(y)] = 1.0
    return vz


def instance_errors(rbm, X, y):
    """Eq. 26 error per row, through the fused path RBM-IM runs."""
    vz = packed_rows(X, y, rbm.config.n_classes)
    h = rbm.hidden_probabilities_packed(vz)
    return reconstruction_errors_from_hidden(
        rbm, X, vz[:, X.shape[1] :], h, np.empty_like(vz)
    )


class TestConditionalProbabilities:
    def test_hidden_probabilities_in_unit_interval(self, labelled_batch):
        X, y = labelled_batch
        rbm = make_rbm(n_visible=X.shape[1])
        h = rbm.hidden_probabilities_packed(packed_rows(X, y))
        assert h.shape == (X.shape[0], 4)
        assert np.all((h >= 0.0) & (h <= 1.0))

    def test_hidden_probabilities_out_matches_fresh_array(self, labelled_batch):
        X, y = labelled_batch
        rbm = make_rbm(n_visible=X.shape[1])
        vz = packed_rows(X, y)
        out = np.full((X.shape[0], 4), np.nan)
        written = rbm.hidden_probabilities_packed(vz, out=out)
        assert written is out
        np.testing.assert_array_equal(out, rbm.hidden_probabilities_packed(vz))

    def test_visible_probabilities_in_unit_interval(self):
        rbm = make_rbm()
        h = np.random.default_rng(0).random((10, 4))
        recon = rbm.reconstruct_packed(h, out=np.empty((10, 9)))
        v = recon[:, :6]
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_class_probabilities_sum_to_one(self):
        rbm = make_rbm()
        h = np.random.default_rng(0).random((10, 4))
        recon = rbm.reconstruct_packed(h, out=np.empty((10, 9)))
        np.testing.assert_allclose(recon[:, 6:].sum(axis=1), 1.0, rtol=1e-9)

    def test_extreme_inputs_do_not_overflow(self):
        rbm = make_rbm()
        rbm._Wvz[:] = 100.0
        v = np.ones((2, 6))
        y = np.zeros(2, dtype=np.int64)
        h = rbm.hidden_probabilities_packed(packed_rows(v, y))
        assert np.all(np.isfinite(h))
        recon = rbm.reconstruct_packed(h, out=np.empty((2, 9)))
        assert np.all(np.isfinite(recon))


class TestKnownAnswer:
    """The fused functions RBM-IM runs against a direct NumPy transcription
    of Eqs. 10-12 and 26, written from the unpacked ``rbm.weights``."""

    @staticmethod
    def _sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    @pytest.fixture
    def trained(self, labelled_batch):
        X, y = labelled_batch
        rbm = make_rbm(n_visible=X.shape[1], n_hidden=5, learning_rate=0.2)
        for _ in range(5):
            rbm.partial_fit(X, y)
        # Biases and both weight blocks have moved off their initial values.
        assert all(np.abs(v).max() > 0.0 for v in rbm.weights.values())
        return rbm, X, y

    def _reference(self, rbm, X, y):
        p = rbm.weights
        z = np.eye(3)[y]
        h = self._sigmoid(p["b"] + X @ p["W"] + z @ p["U"].T)  # Eq. 10
        v_recon = self._sigmoid(p["a"] + h @ p["W"].T)  # Eq. 11
        logits = p["c"] + h @ p["U"]
        z_recon = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)  # Eq. 12
        errors = np.sqrt(
            ((X - v_recon) ** 2).sum(axis=1) + ((z - z_recon) ** 2).sum(axis=1)
        )  # Eq. 26
        return h, v_recon, z_recon, errors

    def test_matches_equations(self, trained):
        rbm, X, y = trained
        h_ref, v_ref, z_ref, errors_ref = self._reference(rbm, X, y)
        vz = packed_rows(X, y)
        h = rbm.hidden_probabilities_packed(vz)
        np.testing.assert_allclose(h, h_ref, rtol=1e-12)
        recon = rbm.reconstruct_packed(h, out=np.empty_like(vz))
        np.testing.assert_allclose(recon[:, :6], v_ref, rtol=1e-12)
        np.testing.assert_allclose(recon[:, 6:], z_ref, rtol=1e-12)
        np.testing.assert_allclose(instance_errors(rbm, X, y), errors_ref, rtol=1e-12)


class TestTraining:
    def test_partial_fit_reduces_reconstruction_error(self, labelled_batch):
        X, y = labelled_batch
        rbm = make_rbm(n_visible=X.shape[1], n_hidden=8, learning_rate=0.2)
        first = instance_errors(rbm, X, y).mean()
        for _ in range(60):
            rbm.partial_fit(X, y)
        assert instance_errors(rbm, X, y).mean() < first

    def test_partial_fit_updates_counters(self, labelled_batch):
        X, y = labelled_batch
        rbm = make_rbm(n_visible=X.shape[1])
        rbm.partial_fit(X, y)
        assert rbm.n_batches_trained == 1
        assert rbm.class_counts.sum() == pytest.approx(len(y))

    def test_shape_validation(self, labelled_batch):
        X, y = labelled_batch
        rbm = make_rbm(n_visible=X.shape[1])
        with pytest.raises(ValueError):
            rbm.partial_fit(X[:, :3], y)
        with pytest.raises(ValueError):
            rbm.partial_fit(X, y[:-1])

    def test_label_out_of_range_rejected(self, labelled_batch):
        X, y = labelled_batch
        rbm = make_rbm(n_visible=X.shape[1])
        with pytest.raises(ValueError):
            rbm.partial_fit(X, np.full_like(y, 7))

    def test_training_is_deterministic_given_seed(self, labelled_batch):
        X, y = labelled_batch
        rbm_a = make_rbm(n_visible=X.shape[1])
        rbm_b = make_rbm(n_visible=X.shape[1])
        for _ in range(5):
            rbm_a.partial_fit(X, y)
            rbm_b.partial_fit(X, y)
        np.testing.assert_allclose(rbm_a.weights["W"], rbm_b.weights["W"])

    def test_weights_property_returns_copies(self):
        rbm = make_rbm()
        weights = rbm.weights
        weights["W"][:] = 99.0
        assert not np.allclose(rbm.weights["W"], 99.0)
