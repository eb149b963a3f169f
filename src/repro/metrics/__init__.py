"""Streaming evaluation metrics: pmAUC, pmG-mean, confusion statistics, drift scoring."""

from repro.metrics.confusion import StreamingConfusionMatrix
from repro.metrics.drift_eval import DriftDetectionReport, evaluate_detections
from repro.metrics.pmauc import PrequentialMultiClassAUC, auc_from_scores
from repro.metrics.prequential import MetricSnapshot, PrequentialEvaluator

__all__ = [
    "StreamingConfusionMatrix",
    "DriftDetectionReport",
    "evaluate_detections",
    "PrequentialMultiClassAUC",
    "auc_from_scores",
    "MetricSnapshot",
    "PrequentialEvaluator",
]
