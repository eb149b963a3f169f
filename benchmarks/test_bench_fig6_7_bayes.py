"""Figures 6-7: Bayesian signed test, RBM-IM vs PerfSim and vs DDM-OCI.

The paper visualises the posterior of the Bayesian signed test comparing
RBM-IM against the two skew-insensitive baselines, for both pmAUC and pmGM.
This harness reproduces the posterior probabilities p(RBM-IM better),
p(practically equivalent), p(baseline better) on the reproduced Table III
results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.stats import bayesian_signed_test
from repro.protocol.analysis import records_to_table

_BASELINES = ["PerfSim", "DDM-OCI"]


def _bayes_analysis(records):
    analysis = {}
    for metric_name, metric in (("pmAUC", "pmauc"), ("pmGM", "pmgm")):
        table = records_to_table(records, metric, scale=100.0)
        matrix = table.to_matrix()
        methods = table.methods
        rbm = matrix[:, methods.index("RBM-IM")]
        for baseline in _BASELINES:
            base = matrix[:, methods.index(baseline)]
            # Scores are percentages; a 1-point difference is the ROPE.
            analysis[(metric_name, baseline)] = bayesian_signed_test(
                rbm, base, rope=1.0, seed=0
            )
    return analysis


@pytest.mark.benchmark(group="fig6-7")
def test_bench_fig6_7_bayesian_signed_test(benchmark, table3_records):
    """Reproduce Fig. 6 (vs PerfSim) and Fig. 7 (vs DDM-OCI)."""
    analysis = benchmark.pedantic(
        _bayes_analysis, args=(table3_records,), rounds=1, iterations=1
    )

    for (metric_name, baseline), result in analysis.items():
        figure = "6" if baseline == "PerfSim" else "7"
        print(
            f"\n=== Fig. {figure} ({metric_name}): RBM-IM vs {baseline} ===\n"
            f"  p(RBM-IM better) = {result.p_left:.3f}\n"
            f"  p(rope)          = {result.p_rope:.3f}\n"
            f"  p({baseline} better) = {result.p_right:.3f}"
        )
        total = result.p_left + result.p_rope + result.p_right
        assert np.isclose(total, 1.0)
        # Shape check: the posterior should not decisively favour the baseline.
        assert result.p_right < 0.95
