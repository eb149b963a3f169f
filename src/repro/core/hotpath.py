"""The ``@hot_path`` marker for allocation-free inner loops.

Functions on the measured hot paths (the RBM CD-k update, the packed
forward/reconstruct passes, and the per-row loops of the classifiers'
chunk-exact kernels: the perceptron weight recurrence and the lock-step
Welford mean replay) are written to reuse persistent scratch buffers and
route every NumPy ufunc through ``out=`` — that is what the recorded
BENCH_throughput.json speedups rest on.  The discipline is easy to erode
one innocent ``np.concatenate`` at a time, so marked functions are
*enforced* by the ``hot-path-alloc`` rule of
:mod:`repro.analysis`: inside an ``@hot_path`` function, allocating
combinators (``np.append``/``np.concatenate``/``np.vstack``/...) are
forbidden and ufunc-style calls must pass ``out=``.

The decorator itself is a pure marker (zero runtime overhead beyond one
attribute): the linter matches it syntactically, and the attribute lets
benchmarks discover marked functions at runtime.
"""

from __future__ import annotations

__all__ = ["hot_path"]


def hot_path(fn):
    """Mark ``fn`` as an allocation-free hot path (checked by the linter)."""
    fn.__hot_path__ = True
    return fn
