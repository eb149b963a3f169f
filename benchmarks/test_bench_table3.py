"""Table III: pmAUC / pmGM of the six detectors over the benchmark streams.

Regenerates the paper's main comparison table (Experiment 1).  For every
benchmark stream the six detectors (WSTD, RDDM, FHDDM, PerfSim, DDM-OCI,
RBM-IM) are paired with the same base classifier in a prequential run; the
harness prints both metric tables together with the average ranks — the same
rows the paper reports.  Run with ``-s`` to see the tables.
"""

from __future__ import annotations

import pytest

from repro.protocol.analysis import records_to_table
from repro.protocol.registry import PAPER_DETECTORS


def _build_tables(records):
    pmauc = records_to_table(records, "pmauc", scale=100.0)
    pmgm = records_to_table(records, "pmgm", scale=100.0)
    pmauc.metric_name, pmgm.metric_name = "pmAUC", "pmGM"
    return pmauc, pmgm


@pytest.mark.benchmark(group="table3")
def test_bench_table3_pmauc_pmgm(benchmark, table3_records):
    """Reproduce Table III (pmAUC and pmGM per stream, plus average ranks)."""
    pmauc, pmgm = benchmark.pedantic(
        _build_tables, args=(table3_records,), rounds=1, iterations=1
    )

    print("\n=== Table III (reproduced, scaled-down): pmAUC [%] ===")
    print(pmauc.to_text())
    print("\n=== Table III (reproduced, scaled-down): pmGM [%] ===")
    print(pmgm.to_text())

    # Structural checks: every stream has a value for every detector and the
    # values are valid percentages.
    matrix = pmauc.to_matrix()
    assert matrix.shape[1] == len(PAPER_DETECTORS)
    assert ((matrix >= 0.0) & (matrix <= 100.0)).all()

    # Report the rank comparison the paper highlights (imbalance-aware vs
    # standard detectors).  At the scaled-down benchmark size the ordering can
    # deviate from the paper, so this is reported rather than asserted; the
    # assertion only checks the ranks are well-formed.
    ranks = pmauc.ranks()
    skew_aware = (ranks["PerfSim"] + ranks["DDM-OCI"] + ranks["RBM-IM"]) / 3.0
    standard = (ranks["WSTD"] + ranks["RDDM"] + ranks["FHDDM"]) / 3.0
    print(
        f"\nMean rank, imbalance-aware detectors = {skew_aware:.2f}; "
        f"standard detectors = {standard:.2f} (paper: imbalance-aware ahead)"
    )
    assert all(1.0 <= rank <= len(PAPER_DETECTORS) for rank in ranks.values())


@pytest.mark.benchmark(group="table3")
def test_bench_table3_update_times(benchmark, table3_records):
    """Reproduce the timing rows of Table III (avg detector update time)."""

    def collect_times():
        table = records_to_table(table3_records, "detector_time")
        return dict(zip(table.methods, table.to_matrix().mean(axis=0)))

    times = benchmark.pedantic(collect_times, rounds=1, iterations=1)
    print("\n=== Table III (reproduced): mean detector time per stream [s] ===")
    for name in PAPER_DETECTORS:
        print(f"  {name:10s} {times[name]:8.3f}")
    assert all(value >= 0.0 for value in times.values())
