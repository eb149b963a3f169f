"""Figures 4-5: Friedman ranking with the Bonferroni-Dunn post-hoc test.

The paper visualises the detectors' average ranks (for pmAUC and pmGM) on a
critical-distance diagram.  This harness reproduces the underlying numbers:
the Friedman test statistic, the per-detector average ranks, the
Bonferroni-Dunn critical distance, and which baselines fall outside RBM-IM's
critical-distance band.
"""

from __future__ import annotations

import pytest

from repro.evaluation.stats import bonferroni_dunn_test, friedman_test
from repro.protocol.analysis import records_to_table
from repro.protocol.registry import PAPER_DETECTORS


def _rank_analysis(records):
    analysis = {}
    for metric_name, metric in (("pmAUC", "pmauc"), ("pmGM", "pmgm")):
        table = records_to_table(records, metric, scale=100.0)
        matrix = table.to_matrix()
        friedman = friedman_test(matrix)
        post_hoc = bonferroni_dunn_test(
            matrix, table.methods, control="RBM-IM", alpha=0.05
        )
        analysis[metric_name] = (friedman, post_hoc)
    return analysis


@pytest.mark.benchmark(group="fig4-5")
def test_bench_fig4_5_bonferroni_dunn(benchmark, table3_records):
    """Reproduce the Fig. 4 (pmAUC) and Fig. 5 (pmGM) rank diagrams."""
    analysis = benchmark.pedantic(
        _rank_analysis, args=(table3_records,), rounds=1, iterations=1
    )

    for metric_name, (friedman, post_hoc) in analysis.items():
        print(f"\n=== Fig. {'4' if metric_name == 'pmAUC' else '5'} ({metric_name}) ===")
        print(f"Friedman chi-square = {friedman.statistic:.3f}, p = {friedman.p_value:.4f}")
        print(f"Bonferroni-Dunn critical distance = {post_hoc.critical_distance:.3f}")
        for name in PAPER_DETECTORS:
            marker = " *worse than control*" if name in post_hoc.significantly_worse else ""
            print(f"  {name:10s} rank = {post_hoc.average_ranks[name]:.2f}{marker}")

        ranks = post_hoc.average_ranks
        assert set(ranks) == set(PAPER_DETECTORS)
        assert post_hoc.critical_distance > 0.0
        assert all(1.0 <= rank <= len(PAPER_DETECTORS) for rank in ranks.values())
        # NOTE: at the scaled-down benchmark size the rank ordering does not
        # necessarily match the paper (RBM-IM underfits short streams); the
        # harness asserts the analysis is well-formed and reports the
        # reproduced ordering for inspection.
