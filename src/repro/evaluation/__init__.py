"""Evaluation harness: prequential runner, grid cells, statistics, tuning."""

from repro.evaluation.experiment import default_classifier_factory
from repro.evaluation.grid import GridCell, GridCellResult
from repro.evaluation.prequential import PrequentialRunner, RunResult
from repro.evaluation.results import ResultTable, format_series_table
from repro.evaluation.stats import (
    BayesianSignedTestResult,
    BonferroniDunnResult,
    FriedmanResult,
    average_ranks,
    bayesian_signed_test,
    bonferroni_dunn_critical_distance,
    bonferroni_dunn_test,
    friedman_test,
    nemenyi_critical_distance,
)
from repro.evaluation.tuning import NelderMeadTuner, ParameterSpace, tune_on_stream

__all__ = [
    "default_classifier_factory",
    "GridCell",
    "GridCellResult",
    "PrequentialRunner",
    "RunResult",
    "ResultTable",
    "format_series_table",
    "BayesianSignedTestResult",
    "BonferroniDunnResult",
    "FriedmanResult",
    "average_ranks",
    "bayesian_signed_test",
    "bonferroni_dunn_critical_distance",
    "bonferroni_dunn_test",
    "friedman_test",
    "nemenyi_critical_distance",
    "NelderMeadTuner",
    "ParameterSpace",
    "tune_on_stream",
]
