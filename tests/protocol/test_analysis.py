"""The analysis stage: record folding, guarded statistics, report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocol.analysis import (
    analyze_records,
    detection_table,
    records_to_table,
    render_report,
)


def make_record(
    benchmark: str,
    detector: str,
    seed: int = 0,
    pmauc: float = 0.8,
    recall: float = 1.0,
    error: "str | None" = None,
) -> dict:
    return {
        "stream": benchmark,
        "benchmark": benchmark,
        "detector": detector,
        "seed": seed,
        "error": error,
        "pmauc": pmauc,
        "pmgm": pmauc - 0.1,
        "accuracy": pmauc + 0.05,
        "kappa": pmauc - 0.2,
        "detections": [100],
        "drift_report": {
            "n_true_drifts": 1,
            "n_detections": 1,
            "n_detected": 1,
            "n_false_alarms": 0,
            "mean_delay": 40.0,
            "detection_recall": recall,
        },
    }


class TestRecordsToTable:
    def test_seed_averaging(self):
        records = [
            make_record("bench", "DDM", seed=0, pmauc=0.8),
            make_record("bench", "DDM", seed=1, pmauc=0.6),
        ]
        table = records_to_table(records, "pmauc")
        assert table.value("bench", "DDM") == pytest.approx(0.7)

    def test_drift_report_metrics_resolve(self):
        table = detection_table([make_record("bench", "DDM", recall=0.5)])
        assert table.value("bench", "DDM") == pytest.approx(0.5)

    def test_failed_and_metricless_records_skipped(self):
        records = [
            make_record("bench", "DDM"),
            make_record("bench", "ADWIN", error="boom"),
            {"benchmark": "bench", "detector": "WSTD", "error": None},
        ]
        table = records_to_table(records, "pmauc")
        assert table.methods == ["DDM"]

    def test_nan_values_skipped(self):
        record = make_record("bench", "DDM")
        record["drift_report"]["mean_delay"] = float("nan")
        table = records_to_table([record], "mean_delay")
        assert table.datasets == []

    def test_scale(self):
        table = records_to_table([make_record("bench", "DDM", pmauc=0.8)], "pmauc", scale=100.0)
        assert table.value("bench", "DDM") == pytest.approx(80.0)


class TestAnalyzeRecords:
    def _records(self, n_benchmarks=4, detectors=("DDM", "ADWIN", "RBM-IM")):
        rng = np.random.default_rng(0)
        records = []
        for b in range(n_benchmarks):
            for j, detector in enumerate(detectors):
                records.append(
                    make_record(
                        f"bench{b}",
                        detector,
                        pmauc=0.5 + 0.1 * j + 0.01 * float(rng.random()),
                    )
                )
        return records

    def test_full_analysis_runs_all_tests(self):
        analysis = analyze_records(
            self._records(), metrics=("pmauc",), control="RBM-IM"
        )
        item = analysis.metrics["pmauc"]
        assert item.friedman is not None
        assert item.bonferroni_dunn is not None
        assert set(item.bayesian) == {"DDM", "ADWIN"}
        assert item.ranks["RBM-IM"] == pytest.approx(1.0)

    def test_small_matrices_skip_with_notes_instead_of_raising(self):
        analysis = analyze_records(
            [make_record("bench", "DDM"), make_record("bench", "RBM-IM")],
            metrics=("pmauc",),
            control="RBM-IM",
        )
        item = analysis.metrics["pmauc"]
        assert item.friedman is None
        assert item.bonferroni_dunn is None
        assert any("Friedman test skipped" in note for note in item.notes)

    def test_all_detectors_tied_notes_a_degenerate_friedman_test(self):
        records = [
            make_record(f"bench{b}", detector, pmauc=0.7)
            for b in range(3)
            for detector in ("DDM", "ADWIN", "RBM-IM")
        ]
        item = analyze_records(records, metrics=("pmauc",), control=None).metrics[
            "pmauc"
        ]
        assert item.friedman is None
        assert (
            "Friedman test degenerate: every detector tied on every benchmark"
            in item.notes
        )
        assert item.ranks == {"DDM": 2.0, "ADWIN": 2.0, "RBM-IM": 2.0}

    def test_missing_control_noted(self):
        analysis = analyze_records(
            self._records(detectors=("DDM", "ADWIN", "WSTD")),
            metrics=("pmauc",),
            control="RBM-IM",
        )
        item = analysis.metrics["pmauc"]
        assert item.bonferroni_dunn is None
        assert any("no complete results" in note for note in item.notes)

    def test_delay_metric_ranks_lower_as_better(self):
        records = []
        for b in range(3):
            fast = make_record(f"bench{b}", "FAST")
            fast["drift_report"]["mean_delay"] = 10.0
            slow = make_record(f"bench{b}", "SLOW")
            slow["drift_report"]["mean_delay"] = 500.0
            records.extend([fast, slow])
        analysis = analyze_records(records, metrics=("mean_delay",), control=None)
        ranks = analysis.metrics["mean_delay"].ranks
        assert ranks["FAST"] < ranks["SLOW"]

    def test_bayesian_test_respects_metric_direction(self):
        """For lower-is-better metrics, 'left' must still mean control-wins."""
        records = []
        for b in range(10):
            control = make_record(f"bench{b}", "CTRL")
            control["drift_report"]["mean_delay"] = 10.0 + b
            rival = make_record(f"bench{b}", "RIVAL")
            rival["drift_report"]["mean_delay"] = 500.0 + b
            records.extend([control, rival])
        analysis = analyze_records(records, metrics=("mean_delay",), control="CTRL")
        bayes = analysis.metrics["mean_delay"].bayesian["RIVAL"]
        # The control detects drifts far faster, so it is practically better.
        assert bayes.winner == "left"


class TestRenderReport:
    def test_report_contains_tables_stats_and_notes(self):
        records = [
            make_record(f"bench{b}", d, pmauc=0.5 + 0.1 * j)
            for b in range(4)
            for j, d in enumerate(("DDM", "ADWIN", "RBM-IM"))
        ]
        analysis = analyze_records(
            records, metrics=("pmauc", "detection_recall"), control="RBM-IM"
        )
        text = render_report(analysis)
        assert "== pmauc ==" in text
        assert "== detection_recall ==" in text
        assert "Friedman:" in text
        assert "Bonferroni-Dunn vs RBM-IM" in text
        assert "Bayesian signed" in text

    def test_empty_records_render_gracefully(self):
        analysis = analyze_records([], metrics=("pmauc",), control="RBM-IM")
        assert "(no completed results)" in render_report(analysis)

    def test_rendered_ranks_respect_metric_direction(self):
        """The printed ranks row must rank lower delays as better."""
        records = []
        for b in range(3):
            fast = make_record(f"bench{b}", "FAST")
            fast["drift_report"]["mean_delay"] = 10.0
            slow = make_record(f"bench{b}", "SLOW")
            slow["drift_report"]["mean_delay"] = 500.0
            records.extend([fast, slow])
        analysis = analyze_records(records, metrics=("mean_delay",), control=None)
        text = render_report(analysis)
        (ranks_line,) = [
            line for line in text.splitlines() if line.startswith("ranks")
        ]
        # Column order is FAST then SLOW: the fast detector must rank 1.
        assert ranks_line.split() == ["ranks", "1.00", "2.00"]
