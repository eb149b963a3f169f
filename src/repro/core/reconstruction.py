"""Per-instance reconstruction error (Eqs. 22-26 of the paper).

RBM-IM detects drifts by comparing newly arrived instances against the
compressed representation of previous concepts stored inside the RBM.  The
similarity measure is the reconstruction error: each instance is clamped to
the visible and class layers, the hidden layer is inferred, and features
plus class scores are reconstructed; the root of the summed squared
differences is the instance's reconstruction error (Eq. 26), implemented
once, by :func:`reconstruction_errors_from_hidden`.  The per-class average
of Eq. 27 is :meth:`repro.core.detector.RBMIM._process_batch`'s pooling.
"""

from __future__ import annotations

import numpy as np

from repro.core.rbm import SkewInsensitiveRBM

__all__ = ["reconstruction_errors_from_hidden"]


def reconstruction_errors_from_hidden(
    rbm: SkewInsensitiveRBM,
    X: np.ndarray,
    z0: np.ndarray,
    h: np.ndarray,
    recon_out: np.ndarray,
) -> np.ndarray:
    """Eq. 26 errors from precomputed one-hot labels and hidden activations.

    The hidden probabilities for the clamped ``(v, z)`` pair are exactly what
    the subsequent CD training step needs for its positive phase, so RBM-IM
    computes them once per mini-batch and feeds them both here and into
    :meth:`SkewInsensitiveRBM.partial_fit`.  ``recon_out`` is a
    ``(n, n_visible + n_classes)`` scratch buffer the reconstruction is
    written into (its contents are clobbered).
    """
    recon = rbm.reconstruct_packed(h, out=recon_out)
    split = X.shape[1]
    recon[:, :split] -= X
    recon[:, split:] -= z0
    return np.sqrt(np.einsum("ij,ij->i", recon, recon))
