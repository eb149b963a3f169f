"""Fold stored protocol records into the paper's tables and statistics.

The analysis stage is a pure function of the records persisted by the
pipeline: it never re-runs experiments.  Records are grouped into
(benchmark x detector) :class:`~repro.evaluation.results.ResultTable`\\ s
(seed-averaged), ranked, and — when the matrix is large enough — passed
through the Friedman test, the Bonferroni-Dunn post-hoc comparison against a
control detector (Figs. 4-5), and pairwise Bayesian signed tests against the
control (Figs. 6-7).  Tests whose preconditions are not met (fewer than
three detectors, a single benchmark, missing control) are skipped with a
note rather than raising, so partial stores still produce a useful report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.evaluation.results import ResultTable
from repro.evaluation.stats import (
    BayesianSignedTestResult,
    BonferroniDunnResult,
    FriedmanResult,
    bayesian_signed_test,
    bonferroni_dunn_test,
    friedman_test,
)

__all__ = [
    "DEFAULT_METRICS",
    "records_to_table",
    "detection_table",
    "MetricAnalysis",
    "ProtocolAnalysis",
    "analyze_records",
    "render_report",
]

#: RunResult metrics folded into tables by default.
DEFAULT_METRICS = ("pmauc", "pmgm", "accuracy", "kappa")


def records_to_table(
    records: Iterable[dict], metric: str = "pmauc", scale: float = 1.0
) -> ResultTable:
    """Seed-averaged (benchmark x detector) table of one stored metric.

    ``metric`` is either a top-level record field (``pmauc``, ``kappa``, ...)
    or a ``drift_report`` field (``detection_recall``, ``mean_delay``,
    ``n_false_alarms``).  Records without the metric, or whose value is
    ``null`` or NaN (a cell with no matched detection stores its
    ``mean_delay`` as ``null``), are skipped.
    """
    values: dict[tuple[str, str], list[float]] = {}
    for record in records:
        if record.get("error") is not None:
            continue
        if metric in record:
            value = record[metric]
        elif metric in (record.get("drift_report") or {}):
            value = record["drift_report"][metric]
        else:
            continue
        if value is None:
            continue
        value = float(value)
        if np.isnan(value):
            continue
        dataset = record.get("benchmark", record.get("stream", "?"))
        values.setdefault((dataset, record["detector"]), []).append(scale * value)
    table = ResultTable(metric_name=metric)
    for (dataset, method), series in values.items():
        table.add(dataset, method, float(np.mean(series)))
    return table


def detection_table(records: Iterable[dict], metric: str = "detection_recall") -> ResultTable:
    """Convenience wrapper for drift-report metrics (recall/delay/false alarms)."""
    return records_to_table(records, metric)


@dataclass
class MetricAnalysis:
    """Everything derived from one metric's (benchmark x detector) table."""

    metric: str
    table: ResultTable
    ranks: dict[str, float]
    higher_is_better: bool = True
    friedman: FriedmanResult | None = None
    bonferroni_dunn: BonferroniDunnResult | None = None
    bayesian: dict[str, BayesianSignedTestResult] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass
class ProtocolAnalysis:
    """The full report: one :class:`MetricAnalysis` per metric."""

    control: str | None
    metrics: dict[str, MetricAnalysis] = field(default_factory=dict)


def _complete_matrix(table: ResultTable) -> tuple[np.ndarray, list[str]]:
    """Rows with no missing cells, plus the method (column) names."""
    matrix = table.to_matrix()
    if matrix.size == 0:
        return matrix, table.methods
    complete = ~np.isnan(matrix).any(axis=1)
    return matrix[complete], table.methods


def analyze_metric(
    records: Sequence[dict],
    metric: str,
    control: str | None = None,
    rope: float = 0.01,
    higher_is_better: bool = True,
) -> MetricAnalysis:
    """Table + rank + significance analysis for one metric."""
    table = records_to_table(records, metric)
    analysis = MetricAnalysis(
        metric=metric,
        table=table,
        ranks=table.ranks(higher_is_better),
        higher_is_better=higher_is_better,
    )
    matrix, methods = _complete_matrix(table)
    n_datasets = matrix.shape[0] if matrix.ndim == 2 else 0
    n_methods = len(methods)

    if n_methods >= 3 and n_datasets >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            friedman = friedman_test(matrix, higher_is_better)
        if np.isnan(friedman.p_value):
            analysis.notes.append(
                "Friedman test degenerate: every detector tied on every benchmark"
            )
        else:
            analysis.friedman = friedman
    else:
        analysis.notes.append(
            "Friedman test skipped: needs >= 3 detectors and >= 2 complete "
            f"benchmarks (have {n_methods} and {n_datasets})"
        )

    if control is not None and control in methods:
        if n_methods >= 2 and n_datasets >= 2:
            analysis.bonferroni_dunn = bonferroni_dunn_test(
                matrix, methods, control, higher_is_better=higher_is_better
            )
        else:
            analysis.notes.append(
                "Bonferroni-Dunn skipped: needs >= 2 detectors and >= 2 "
                f"complete benchmarks (have {n_methods} and {n_datasets})"
            )
        control_index = methods.index(control)
        # Orient scores so "left" always means "control practically better",
        # also for lower-is-better metrics such as mean_delay.
        oriented = matrix if higher_is_better else -matrix
        for j, method in enumerate(methods):
            if method == control or n_datasets == 0:
                continue
            analysis.bayesian[method] = bayesian_signed_test(
                oriented[:, control_index], oriented[:, j], rope=rope
            )
    elif control is not None:
        analysis.notes.append(
            f"control {control!r} has no complete results; post-hoc tests skipped"
        )
    return analysis


def analyze_records(
    records: Sequence[dict],
    metrics: Sequence[str] = DEFAULT_METRICS,
    control: str | None = "RBM-IM",
    rope: float = 0.01,
) -> ProtocolAnalysis:
    """Fold records into per-metric tables, ranks, and significance tests."""
    records = list(records)
    analysis = ProtocolAnalysis(control=control)
    for metric in metrics:
        higher_is_better = metric not in ("mean_delay", "n_false_alarms")
        analysis.metrics[metric] = analyze_metric(
            records,
            metric,
            control=control,
            rope=rope,
            higher_is_better=higher_is_better,
        )
    return analysis


def render_report(analysis: ProtocolAnalysis, precision: int = 3) -> str:
    """Plain-text report: one table + statistics block per metric."""
    blocks: list[str] = []
    for metric, item in analysis.metrics.items():
        lines = [f"== {metric} =="]
        if not item.table.datasets:
            lines.append("(no completed results)")
            blocks.append("\n".join(lines))
            continue
        lines.append(
            item.table.to_text(
                precision=precision, higher_is_better=item.higher_is_better
            )
        )
        if item.friedman is not None:
            verdict = "significant" if item.friedman.significant else "not significant"
            lines.append(
                f"Friedman: chi2={item.friedman.statistic:.3f} "
                f"p={item.friedman.p_value:.4f} ({verdict} at 0.05)"
            )
        if item.bonferroni_dunn is not None:
            bd = item.bonferroni_dunn
            worse = ", ".join(bd.significantly_worse) or "none"
            lines.append(
                f"Bonferroni-Dunn vs {bd.control}: CD={bd.critical_distance:.3f}; "
                f"significantly worse: {worse}"
            )
        for method, bayes in item.bayesian.items():
            lines.append(
                f"Bayesian signed ({analysis.control} vs {method}): "
                f"p_left={bayes.p_left:.3f} p_rope={bayes.p_rope:.3f} "
                f"p_right={bayes.p_right:.3f} -> {bayes.winner}"
            )
        for note in item.notes:
            lines.append(f"note: {note}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
