"""The paper's default base classifier.

:func:`default_classifier_factory` builds the cost-sensitive perceptron tree
every protocol cell pairs with its detector unless a caller passes another
classifier.  The detector line-up and each detector's settings live in
:mod:`repro.protocol.registry`; comparisons run as
:class:`~repro.evaluation.grid.CellTask`\\ s on an
:class:`~repro.protocol.backends.ExecutionBackend`.

The factory stays in this module because its dotted path is part of every
cell key: :data:`repro.protocol.spec.DEFAULT_CLASSIFIER_LABEL` names it, and
moving it would orphan every stored record.
"""

from __future__ import annotations

from repro.classifiers.base import StreamClassifier
from repro.classifiers.perceptron_tree import CostSensitivePerceptronTree

__all__ = ["default_classifier_factory"]


def default_classifier_factory(n_features: int, n_classes: int) -> StreamClassifier:
    """The paper's base classifier: Adaptive Cost-Sensitive Perceptron Tree."""
    return CostSensitivePerceptronTree(
        n_features=n_features,
        n_classes=n_classes,
        grace_period=200,
        max_depth=3,
        cost_sensitive=True,
        seed=7,
    )
