"""``repro.analysis`` — the AST-based invariant linter.

Generic linters know nothing about this repo's contracts; this package
encodes them as static rules and fails CI the moment one is broken, instead
of waiting for a hypothesis suite (or a reviewer) to catch the violation
after the fact:

========================  ====================================================
rule id                   contract it encodes
========================  ====================================================
``determinism``           fixed-draw-budget RNG discipline (PR 1/3/4): no
                          seedless ``default_rng()``, no global
                          ``np.random``/``random`` samplers, no ``time.time``,
                          no per-process-salted builtin ``hash()``
``strict-json``           result sinks emit strict JSON (PR 8): ``json.dump``
                          outside ``repro.core.jsonio`` needs
                          ``allow_nan=False``
``durability``            crash-durable renames (PR 8): ``os.replace`` implies
                          a directory fsync
``contract-coverage``     registry-vs-tests consistency: every registry
                          detector has golden pins, reset-replay and
                          snapshot round-trip coverage, and a chunk-exact
                          ``step_batch``
``hot-path-alloc``        ``@hot_path`` functions stay allocation-free (PR 6)
``broad-except``          bare/broad excepts carry a written rationale
``pickle-safety``         no lambdas/closures in backend-submitted payloads
``global-memo``           no process-global ``functools.lru_cache``/``cache``
                          memos: a warm memo changes what a run costs
========================  ====================================================

Run it as ``python -m repro.analysis [--strict] [paths]``; suppress a single
finding with ``# lint: disable=<rule> -- <rationale>`` on its line.  The
package (and everything it imports) is **stdlib-only**: the CI lint gate
installs no dependencies at all.
"""

from __future__ import annotations

from repro.analysis.engine import ERROR, WARNING, Finding, lint_paths
from repro.analysis.rules import all_rules

__all__ = ["ERROR", "WARNING", "Finding", "all_rules", "lint_paths", "run"]


def run(
    paths,
    *,
    strict: bool = False,
    select=None,
    ignore=None,
    project_root=None,
) -> list:
    """Lint ``paths`` with the default rule set; returns the findings.

    ``select`` / ``ignore`` are iterables of rule ids; ``strict`` escalates
    every finding to error severity.
    """
    rules = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        rules = [rule for rule in rules if rule.id in wanted]
    if ignore is not None:
        dropped = set(ignore)
        unknown = dropped - {rule.id for rule in all_rules()}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        rules = [rule for rule in rules if rule.id not in dropped]
    return lint_paths(paths, rules, strict=strict, project_root=project_root)
