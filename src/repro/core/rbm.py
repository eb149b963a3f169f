"""Skew-insensitive Restricted Boltzmann Machine with a class layer.

Implements the neural architecture of Section V-A of the paper: a visible
layer ``v`` (features scaled to [0, 1]), a hidden layer ``h``, and a class
("softmax") layer ``z``.  Training uses Contrastive Divergence with ``k``
Gibbs steps on mini-batches (Eqs. 15-21) and the class-balanced loss weighting
of Eq. 13 via :class:`repro.core.loss.ClassBalancedWeighter`, which makes the
learned representation robust to multi-class imbalance.

Each equation has one implementation, the one RBM-IM runs on packed
``[v | z]`` rows: Eq. 10 is :meth:`~SkewInsensitiveRBM.hidden_probabilities_packed`,
Eqs. 11-12 :meth:`~SkewInsensitiveRBM.reconstruct_packed` and Eqs. 15-21
:meth:`~SkewInsensitiveRBM.partial_fit`.  The energy of Eq. 8 is not
implemented: CD-k needs only the conditionals.

The network is deliberately self-contained (pure NumPy) so the whole drift
detector has no dependencies beyond the scientific Python stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.core.hotpath import hot_path
from repro.core.loss import ClassBalancedWeighter
from repro.core.snapshot import Snapshotable, register_dataclass

__all__ = ["RBMConfig", "SkewInsensitiveRBM"]


@register_dataclass
@dataclass(frozen=True)
class RBMConfig:
    """Hyper-parameters of the skew-insensitive RBM (Table II, last block).

    Attributes
    ----------
    n_visible:
        Number of visible neurons ``V`` (= number of features).
    n_hidden:
        Number of hidden neurons ``H`` (the paper tunes it as a fraction of
        ``V``: 0.25V .. V).
    n_classes:
        Number of class neurons ``Z``.
    learning_rate:
        Gradient step ``eta`` of Eqs. 17-21.
    cd_steps:
        Number of Gibbs sampling steps ``k`` of CD-k.
    momentum:
        Classic momentum applied to all parameter updates.
    weight_decay:
        L2 penalty applied to the connection weights.
    balance_beta:
        ``beta`` of the class-balanced loss (effective number of samples).
    balance_decay:
        Forgetting factor of the running class counts used by the loss.
    seed:
        RNG seed for weight initialisation and Gibbs sampling.
    """

    n_visible: int
    n_hidden: int
    n_classes: int
    learning_rate: float = 0.05
    cd_steps: int = 1
    momentum: float = 0.5
    weight_decay: float = 1e-4
    balance_beta: float = 0.999
    balance_decay: float = 0.999
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_visible < 1 or self.n_hidden < 1:
            raise ValueError("layer sizes must be positive")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.cd_steps < 1:
            raise ValueError("cd_steps must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


class SkewInsensitiveRBM(Snapshotable):
    """Three-layer (visible / hidden / class) RBM trained with weighted CD-k."""

    # Gradient and CD-k scratch is overwritten before every use; snapshots
    # carry only the learned parameters, velocities, RNG, and weighter.
    _SNAPSHOT_EXCLUDE = frozenset({
        "_grad_Wvz", "_decay_Wvz", "_grad_bias_vz", "_grad_b", "_scratch_n",
        "_vz2", "_h2", "_diff_vz", "_rand", "_less", "_h_sample", "_hk",
        "_neg_w",
    })

    def _after_restore(self) -> None:
        n_vz = self._config.n_visible + self._config.n_classes
        self._grad_Wvz = np.empty_like(self._Wvz)
        self._decay_Wvz = np.empty_like(self._Wvz)
        self._grad_bias_vz = np.empty(n_vz)
        self._grad_b = np.empty(self._config.n_hidden)
        self._scratch_n = 0

    def __init__(self, config: RBMConfig) -> None:
        self._config = config
        rng = np.random.default_rng(config.seed)
        scale = 0.01
        self._rng = rng
        # Connection weights live packed: one (V+Z, H) matrix whose first V
        # rows are W (v <-> h) and last Z rows are U.T (z <-> h), with the
        # visible and class biases packed the same way.  The CD-k update then
        # works on concatenated (v, z) rows with a single matmul/velocity
        # triple where the unpacked layout needs two of everything — at
        # streaming mini-batch sizes the dispatch overhead of those extra
        # NumPy calls dominates the arithmetic.
        n_vz = config.n_visible + config.n_classes
        self._n_visible = config.n_visible
        self._Wvz = np.empty((n_vz, config.n_hidden))
        self._Wvz[: config.n_visible] = rng.normal(
            0.0, scale, size=(config.n_visible, config.n_hidden)
        )
        self._Wvz[config.n_visible :] = rng.normal(
            0.0, scale, size=(config.n_hidden, config.n_classes)
        ).T
        self._bias_vz = np.zeros(n_vz)  # visible biases a | class biases c
        self._b = np.zeros(config.n_hidden)  # hidden biases
        self._vel_Wvz = np.zeros_like(self._Wvz)
        self._vel_bias_vz = np.zeros(n_vz)
        self._vel_b = np.zeros(config.n_hidden)
        self._weighter = ClassBalancedWeighter(
            config.n_classes, beta=config.balance_beta, decay=config.balance_decay
        )
        self._n_batches_trained = 0
        # Gradient scratch (parameter-shaped, batch-size independent).  The
        # batch-shaped training scratch is (re)allocated lazily by
        # _ensure_scratch; all scratch contents are overwritten before use,
        # so snapshots/rollbacks of the whole object stay consistent.
        self._grad_Wvz = np.empty_like(self._Wvz)
        self._decay_Wvz = np.empty_like(self._Wvz)
        self._grad_bias_vz = np.empty(n_vz)
        self._grad_b = np.empty(config.n_hidden)
        self._scratch_n = 0

    def _ensure_scratch(self, n: int) -> None:
        """(Re)allocate the batch-shaped training scratch for batch size n."""
        if self._scratch_n == n:
            return
        n_vz = self._Wvz.shape[0]
        n_hidden = self._config.n_hidden
        self._scratch_n = n
        # Packed [vz0 ; vzk] rows and [w*h0 ; -w*hk] rows: the CD-k weight
        # gradient collapses to ONE gemm over the concatenation, and the
        # hidden-bias gradient to one column sum of the h block.
        self._vz2 = np.empty((2 * n, n_vz))
        self._h2 = np.empty((2 * n, n_hidden))
        self._diff_vz = np.empty((n, n_vz))
        self._rand = np.empty((n, n_hidden))
        self._less = np.empty((n, n_hidden), dtype=bool)
        self._h_sample = np.empty((n, n_hidden))
        self._hk = np.empty((n, n_hidden))
        self._neg_w = np.empty((n, 1))

    # ---------------------------------------------------------------- state
    @property
    def config(self) -> RBMConfig:
        return self._config

    @property
    def n_batches_trained(self) -> int:
        return self._n_batches_trained

    @property
    def class_counts(self) -> np.ndarray:
        """Running class counts used by the class-balanced loss."""
        return self._weighter.counts

    @property
    def weights(self) -> dict[str, np.ndarray]:
        """Copies of all parameters, unpacked (for inspection / comparison)."""
        split = self._n_visible
        return {
            "W": self._Wvz[:split].copy(),
            "U": self._Wvz[split:].T.copy(),
            "a": self._bias_vz[:split].copy(),
            "b": self._b.copy(),
            "c": self._bias_vz[split:].copy(),
        }

    # -------------------------------------------------------- conditionals
    @hot_path
    def hidden_probabilities_packed(
        self, vz: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``P(h_j = 1 | v, z)`` (Eq. 10) on packed ``[v | z]`` rows.

        One matmul over the packed weights; the result goes into ``out``
        when given, else into a fresh ``(n, H)`` array.  expit is a single
        saturating C ufunc, so extreme inputs need no clip.
        """
        if out is None:
            out = np.empty((vz.shape[0], self._b.shape[0]))
        np.matmul(vz, self._Wvz, out=out)
        out += self._b
        special.expit(out, out=out)
        return out

    @hot_path
    def reconstruct_packed(self, h: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Eqs. 11-12 fused: reconstructed ``[v | z]`` rows from hidden probs.

        Writes an ``(n, V+Z)`` block into ``out`` and returns it: its first V
        columns hold the sigmoid visible reconstruction and its last Z
        columns the softmax class reconstruction; callers may mutate it
        freely.
        """
        t = np.matmul(h, self._Wvz.T, out=out)
        t += self._bias_vz
        split = self._n_visible
        visible = t[:, :split]
        special.expit(visible, out=visible)
        cls = t[:, split:]
        cls -= cls.max(axis=1, keepdims=True)
        np.exp(cls, out=cls)
        cls /= cls.sum(axis=1, keepdims=True)
        return t

    def _one_hot(self, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.min() < 0 or labels.max() >= self._config.n_classes:
            raise ValueError("label out of range")
        encoded = np.zeros((labels.shape[0], self._config.n_classes))
        encoded[np.arange(labels.shape[0]), labels] = 1.0
        return encoded

    # ------------------------------------------------------------ training
    @hot_path
    def partial_fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        h0: np.ndarray | None = None,
        vz0: np.ndarray | None = None,
    ) -> None:
        """Run one weighted CD-k update on a mini-batch.

        Parameters
        ----------
        X:
            Mini-batch of feature rows already scaled to [0, 1].
        y:
            Integer labels of the mini-batch.
        h0, vz0:
            Optional hidden probabilities for the *current* parameters and
            packed ``[X | one_hot(y)]`` rows (as produced by the
            reconstruction-error pass): when supplied, the positive phase
            reuses them instead of recomputing — the fused path RBM-IM drives
            every mini-batch.  Without ``vz0`` the batch is checked (row
            count, width, labels) and packed here.
        """
        cfg = self._config
        y = np.asarray(y, dtype=np.int64)
        if vz0 is None:
            # The fused detector path supplies validated [X | z0] rows; only
            # the public entry needs the shape checks and the concatenation.
            X = np.atleast_2d(np.asarray(X, dtype=np.float64))
            if X.shape[0] != y.shape[0]:
                raise ValueError("X and y disagree on batch size")
            if X.shape[1] != cfg.n_visible:
                raise ValueError(
                    f"expected {cfg.n_visible} features, got {X.shape[1]}"
                )
            vz0 = np.concatenate((X, self._one_hot(y)), axis=1)  # lint: disable=hot-path-alloc -- cold public-entry path; the fused detector path supplies vz0 pre-packed
        batch_size = vz0.shape[0]
        sample_weights = self._weighter.observe_weights(y)[:, None]
        h0_prob = h0 if h0 is not None else self.hidden_probabilities_packed(vz0)

        self._ensure_scratch(batch_size)
        n = batch_size
        vz2 = self._vz2
        vz2[:n] = vz0
        vzk = vz2[n:]

        # Gibbs chain (CD-k); the chain state after the last step is never
        # consumed, so no sample is drawn for it.
        rng = self._rng
        h_sample = self._h_sample
        rng.random(out=self._rand)
        np.less(self._rand, h0_prob, out=self._less)
        np.copyto(h_sample, self._less, casting="unsafe")
        hk_prob = h0_prob
        for step in range(cfg.cd_steps):
            self.reconstruct_packed(h_sample, out=vzk)
            hk_prob = self.hidden_probabilities_packed(vzk, out=self._hk)
            if step + 1 < cfg.cd_steps:
                rng.random(out=self._rand)
                np.less(self._rand, hk_prob, out=self._less)
                np.copyto(h_sample, self._less, casting="unsafe")

        # The sample weights enter every gradient as a diagonal matrix, so
        # they may sit on either side of each outer product; weighting the
        # (smaller) hidden side lets the whole weight gradient collapse into
        # one gemm over the packed rows:
        #   [vz0 ; vzk]^T @ [w*h0 ; -w*hk] = vz0^T(w*h0) - vzk^T(w*hk),
        # and the hidden-bias gradient into one column sum of the h block.
        h2 = self._h2
        np.negative(sample_weights, out=self._neg_w)
        np.multiply(h0_prob, sample_weights, out=h2[:n])
        np.multiply(hk_prob, self._neg_w, out=h2[n:])

        lr = cfg.learning_rate
        lr_batch = lr / batch_size
        mom = cfg.momentum
        grad_W = self._grad_Wvz
        np.matmul(vz2.T, h2, out=grad_W)
        grad_W *= lr_batch
        vel_W = self._vel_Wvz
        vel_W *= mom
        vel_W += grad_W
        np.multiply(self._Wvz, lr * cfg.weight_decay, out=self._decay_Wvz)
        vel_W -= self._decay_Wvz

        diff_vz = self._diff_vz
        np.subtract(vz0, vzk, out=diff_vz)
        diff_vz *= sample_weights
        grad_bias = self._grad_bias_vz
        diff_vz.sum(axis=0, out=grad_bias)
        grad_bias *= lr_batch
        vel_bias = self._vel_bias_vz
        vel_bias *= mom
        vel_bias += grad_bias

        grad_b = self._grad_b
        h2.sum(axis=0, out=grad_b)
        grad_b *= lr_batch
        vel_b = self._vel_b
        vel_b *= mom
        vel_b += grad_b

        self._Wvz += vel_W
        self._bias_vz += vel_bias
        self._b += vel_b

        self._n_batches_trained += 1
