"""The one rule for the class labels a batch entry point accepts.

Classifiers and detectors index per-class state by label, so every batch
entry point that takes labels (and a detector's predictions) turns them into
``int64`` class indices first.  A plain ``int64`` cast would do that without
a word for a fractional label (0.4 becomes class 0, 2.9 class 2) and, with a
``RuntimeWarning``, turn NaN into -2**63.  :func:`as_labels` refuses both.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_labels"]


def as_labels(values, what: str = "labels") -> np.ndarray:
    """``values`` as an ``int64`` array; ``ValueError`` naming the first
    value that is not a whole number an ``int64`` holds.

    Integer and boolean arrays pass unchanged, and so do whole-number floats
    such as ``2.0``.  ``what`` names the values in the message.
    """
    array = np.asarray(values)
    if array.dtype.kind in "biu":
        return array.astype(np.int64, copy=False)
    floats = array.astype(np.float64)
    whole = (np.trunc(floats) == floats) & (np.abs(floats) < 2.0**63)
    if not whole.all():
        bad = float(floats[~whole].flat[0])
        raise ValueError(f"{what} must be whole numbers, got {bad!r}")
    return floats.astype(np.int64)
