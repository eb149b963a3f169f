"""Statistical analysis used in the paper's evaluation.

* Friedman ranking test over (datasets x methods) score matrices;
* Bonferroni-Dunn post-hoc test with critical distance (Figs. 4-5);
* Nemenyi critical distance (for all-pairs comparisons);
* Bayesian signed test (Benavoli et al., 2017) for the pairwise probability
  that one method is practically better / equivalent / worse than another
  (Figs. 6-7).

``scipy.stats`` is imported inside the two functions that need it
(:func:`friedman_test`, :func:`bonferroni_dunn_critical_distance`), not at
module level: it is a large import, and the run path (including the rank
tables of ``ProtocolPipeline.table``) never calls either function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.pmauc import midranks

__all__ = [
    "average_ranks",
    "FriedmanResult",
    "friedman_test",
    "bonferroni_dunn_critical_distance",
    "nemenyi_critical_distance",
    "BonferroniDunnResult",
    "bonferroni_dunn_test",
    "BayesianSignedTestResult",
    "bayesian_signed_test",
]


def average_ranks(scores: np.ndarray, higher_is_better: bool = True) -> np.ndarray:
    """Average rank of each method (columns) over the datasets (rows).

    Rank 1 is the best method; ties receive midranks, following Demsar (2006).
    A row holding a NaN ranks as all-NaN, so every method's average is NaN
    (``scipy.stats.rankdata``'s rule).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] == 0:
        raise ValueError(
            "scores must be a (datasets x methods) matrix with at least one dataset"
        )
    data = -scores if higher_is_better else scores
    ranks = np.full(data.shape, np.nan)
    for i, row in enumerate(data):
        if not np.isnan(row).any():
            ranks[i] = midranks(row)
    return ranks.mean(axis=0)


@dataclass(frozen=True)
class FriedmanResult:
    """Friedman test outcome plus the per-method average ranks."""

    statistic: float
    p_value: float
    average_ranks: np.ndarray
    n_datasets: int
    n_methods: int

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def friedman_test(scores: np.ndarray, higher_is_better: bool = True) -> FriedmanResult:
    """Friedman chi-square test over a (datasets x methods) score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] < 3:
        raise ValueError("need a matrix with at least 3 methods (columns)")
    if scores.shape[0] < 2:
        raise ValueError("need at least 2 datasets (rows)")
    from scipy import stats

    statistic, p_value = stats.friedmanchisquare(*scores.T)
    return FriedmanResult(
        statistic=float(statistic),
        p_value=float(p_value),
        average_ranks=average_ranks(scores, higher_is_better),
        n_datasets=scores.shape[0],
        n_methods=scores.shape[1],
    )


def bonferroni_dunn_critical_distance(
    n_methods: int, n_datasets: int, alpha: float = 0.05
) -> float:
    """Critical distance of the Bonferroni-Dunn post-hoc test (vs a control).

    ``CD = q_alpha * sqrt(k (k + 1) / (6 N))`` with
    ``q_alpha = z_{alpha / (2 (k - 1))}`` (Demsar, 2006).
    """
    if n_methods < 2 or n_datasets < 2:
        raise ValueError("need at least 2 methods and 2 datasets")
    from scipy import stats

    q_alpha = stats.norm.ppf(1.0 - alpha / (2.0 * (n_methods - 1)))
    return float(q_alpha * np.sqrt(n_methods * (n_methods + 1) / (6.0 * n_datasets)))


#: Two-tailed Nemenyi q_alpha values at alpha=0.05 for k = 2..10 (Demsar 2006).
_NEMENYI_Q_05 = {
    2: 1.960,
    3: 2.343,
    4: 2.569,
    5: 2.728,
    6: 2.850,
    7: 2.949,
    8: 3.031,
    9: 3.102,
    10: 3.164,
}


def nemenyi_critical_distance(n_methods: int, n_datasets: int) -> float:
    """Nemenyi all-pairs critical distance at alpha = 0.05 (k <= 10)."""
    if n_methods not in _NEMENYI_Q_05:
        raise ValueError("Nemenyi table covers 2..10 methods")
    q_alpha = _NEMENYI_Q_05[n_methods]
    return float(q_alpha * np.sqrt(n_methods * (n_methods + 1) / (6.0 * n_datasets)))


@dataclass(frozen=True)
class BonferroniDunnResult:
    """Outcome of the Bonferroni-Dunn comparison against a control method."""

    control: str
    critical_distance: float
    average_ranks: dict[str, float]
    significantly_worse: list[str]

    def is_significantly_worse(self, method: str) -> bool:
        return method in self.significantly_worse


def bonferroni_dunn_test(
    scores: np.ndarray,
    method_names: list[str],
    control: str,
    alpha: float = 0.05,
    higher_is_better: bool = True,
) -> BonferroniDunnResult:
    """Compare every method against a control using Bonferroni-Dunn.

    A method is significantly worse than the control when its average rank
    exceeds the control's by more than the critical distance.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[1] != len(method_names):
        raise ValueError("method_names length must match the number of columns")
    if control not in method_names:
        raise ValueError(f"control {control!r} not among method_names")
    ranks = average_ranks(scores, higher_is_better)
    critical = bonferroni_dunn_critical_distance(
        scores.shape[1], scores.shape[0], alpha
    )
    rank_of = dict(zip(method_names, ranks))
    control_rank = rank_of[control]
    worse = [
        name
        for name, rank in rank_of.items()
        if name != control and rank - control_rank > critical
    ]
    return BonferroniDunnResult(
        control=control,
        critical_distance=critical,
        average_ranks={name: float(rank) for name, rank in rank_of.items()},
        significantly_worse=worse,
    )


@dataclass(frozen=True)
class BayesianSignedTestResult:
    """Posterior probabilities of the Bayesian signed test (Benavoli 2017).

    ``p_left`` is the probability that the first method is practically better,
    ``p_rope`` the probability of practical equivalence (difference inside the
    region of practical equivalence), and ``p_right`` the probability that the
    second method is practically better.
    """

    p_left: float
    p_rope: float
    p_right: float
    rope: float

    @property
    def winner(self) -> str:
        best = max(
            ("left", self.p_left), ("rope", self.p_rope), ("right", self.p_right),
            key=lambda item: item[1],
        )
        return best[0]


def bayesian_signed_test(
    scores_a: np.ndarray,
    scores_b: np.ndarray,
    rope: float = 0.01,
    prior_strength: float = 1.0,
    n_samples: int = 50_000,
    seed: int | None = 0,
) -> BayesianSignedTestResult:
    """Bayesian (Dirichlet) signed test between two paired score vectors.

    Implements the Bayesian version of the sign test: the differences
    ``a - b`` are classified as left (> rope), rope (|diff| <= rope), or right
    (< -rope); a Dirichlet posterior over the three probabilities (with a
    prior pseudo-count placed on the rope) is sampled and the probability that
    each region dominates is reported.
    """
    scores_a = np.asarray(scores_a, dtype=np.float64)
    scores_b = np.asarray(scores_b, dtype=np.float64)
    if scores_a.shape != scores_b.shape or scores_a.ndim != 1:
        raise ValueError("scores_a and scores_b must be 1-D arrays of equal length")
    if rope < 0.0:
        raise ValueError("rope must be non-negative")
    differences = scores_a - scores_b
    counts = np.array(
        [
            float(np.sum(differences > rope)),
            float(np.sum(np.abs(differences) <= rope)),
            float(np.sum(differences < -rope)),
        ]
    )
    alpha = counts + np.array([0.0, prior_strength, 0.0]) + 1e-6
    rng = np.random.default_rng(seed)
    samples = rng.dirichlet(alpha, size=n_samples)
    winners = np.argmax(samples, axis=1)
    p_left = float(np.mean(winners == 0))
    p_rope = float(np.mean(winners == 1))
    p_right = float(np.mean(winners == 2))
    return BayesianSignedTestResult(p_left=p_left, p_rope=p_rope, p_right=p_right, rope=rope)
