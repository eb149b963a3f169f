"""Contract-coverage: the registry-vs-tests consistency pass.

The repo's detector contracts are enforced by *tests* — golden detection
pins, reset-then-replay determinism, snapshot round-trips — but nothing used
to force a **newly registered** detector into those suites: add a detector
to ``_REGISTRY`` without a golden pin and every existing test still passes.
This rule closes that gap statically, by cross-referencing the live registry
against the test tree:

* every registry detector (except the ``"none"`` baseline) must have a
  golden pin file ``tests/golden/<name>.json``;
* the reset-replay suite must cover it — either by deriving its parametrize
  list from ``DETECTOR_NAMES`` (the current idiom, which covers additions
  automatically) or by naming the detector explicitly;
* the snapshot round-trip suite (PR 10) must cover it the same way — a
  detector that cannot survive ``snapshot()`` → JSON → ``restore()``
  bit-identically would silently break rollback and crash-resume;
* the class its factory returns must define (or inherit, within the repo) a
  chunk-exact ``step_batch``.

Everything is resolved from ASTs (see :mod:`repro.analysis.project`), so the
rule runs without NumPy installed.  Findings are anchored at the registry
entry that lacks coverage — the line you touched when adding the detector.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.engine import ERROR, Finding, ProjectContext, ProjectRule
from repro.analysis.project import (
    ProjectModel,
    dict_entries,
    references_name,
    string_names,
)

__all__ = ["ContractCoverageRule"]


class ContractCoverageRule(ProjectRule):
    """Registry detectors need golden + reset-replay + snapshot +
    ``step_batch`` coverage."""

    id = "contract-coverage"
    description = (
        "every registry detector ships golden pins, reset-replay and "
        "snapshot round-trip coverage, and a step_batch"
    )
    severity = ERROR

    registry_module = "repro.protocol.registry"
    registry_variable = "_REGISTRY"
    golden_dir = "tests/golden"
    reset_replay_test = "tests/detectors/test_reset_replay.py"
    snapshot_test = "tests/detectors/test_snapshot_roundtrip.py"
    registry_list_name = "DETECTOR_NAMES"

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        model = ProjectModel(project.src_root)
        registry = model.module(self.registry_module)
        if registry is None:
            return  # not a repo layout this rule understands
        yield from self._check_detectors(project, model, registry)

    # -------------------------------------------------------- detector zoo
    def _check_detectors(self, project, model, registry) -> Iterator[Finding]:
        entries = [
            (name, lineno, value)
            for name, lineno, value in dict_entries(
                registry.tree, self.registry_variable
            )
            if not self._is_none(value)  # the detector-less baseline
        ]
        if not entries:
            yield self._at(
                registry.path,
                1,
                f"registry dict {self.registry_variable!r} not found or "
                "empty in the registry module; the contract-coverage rule "
                "cannot cross-check detector coverage",
            )
            return

        reset_tree = self._parse_test(project, self.reset_replay_test)
        reset_dynamic = reset_tree is not None and references_name(
            reset_tree, self.registry_list_name
        )
        reset_named = string_names(reset_tree) if reset_tree is not None else set()
        snap_tree = self._parse_test(project, self.snapshot_test)
        snap_dynamic = snap_tree is not None and references_name(
            snap_tree, self.registry_list_name
        )
        snap_named = string_names(snap_tree) if snap_tree is not None else set()

        for name, lineno, value in entries:
            golden = project.root / self.golden_dir / f"{name}.json"
            if not golden.is_file():
                yield self._at(
                    registry.path,
                    lineno,
                    f"registry detector {name!r} has no golden pin "
                    f"({self.golden_dir}/{name}.json); record one with "
                    "pytest --regen-golden",
                )
            if reset_tree is None:
                yield self._at(
                    registry.path,
                    lineno,
                    f"reset-replay suite {self.reset_replay_test} is "
                    f"missing; {name!r} has no reset-determinism coverage",
                )
            elif not reset_dynamic and name not in reset_named:
                yield self._at(
                    registry.path,
                    lineno,
                    f"registry detector {name!r} is not covered by "
                    f"{self.reset_replay_test} (the suite neither derives "
                    f"from {self.registry_list_name} nor names it)",
                )
            if snap_tree is None:
                yield self._at(
                    registry.path,
                    lineno,
                    f"snapshot round-trip suite {self.snapshot_test} is "
                    f"missing; {name!r} has no snapshot/restore coverage",
                )
            elif not snap_dynamic and name not in snap_named:
                yield self._at(
                    registry.path,
                    lineno,
                    f"registry detector {name!r} is not covered by "
                    f"{self.snapshot_test} (the suite neither derives "
                    f"from {self.registry_list_name} nor names it)",
                )
            yield from self._check_step_batch(model, registry, name, lineno, value)

    def _check_step_batch(
        self, model, registry, name, lineno, value
    ) -> Iterator[Finding]:
        builder_name = self._terminal(value)
        builder = (
            registry.functions.get(builder_name) if builder_name else None
        )
        if builder is None:
            yield self._at(
                registry.path,
                lineno,
                f"registry entry {name!r} does not map to a module-level "
                "builder function; the step_batch contract cannot be "
                "verified statically",
            )
            return
        detector_class = model.returned_class(registry, builder)
        if detector_class is None:
            yield self._at(
                registry.path,
                lineno,
                f"could not resolve the class returned by {builder_name}() "
                f"for detector {name!r}; keep builders as plain "
                "'return SomeClass(...)' so coverage stays checkable",
            )
            return
        if not model.class_has_method(detector_class, "step_batch"):
            yield self._at(
                registry.path,
                lineno,
                f"registry detector {name!r} ({detector_class.name} in "
                f"{detector_class.module.dotted}) defines no chunk-exact "
                "step_batch anywhere on its in-repo base chain",
            )

    # ------------------------------------------------------------ plumbing
    def _parse_test(self, project: ProjectContext, relpath: str):
        path = project.root / relpath
        if not path.is_file():
            return None
        try:
            return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except (SyntaxError, UnicodeDecodeError):
            return None

    def _at(self, path, lineno: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=str(path),
            line=lineno,
            col=1,
            message=message,
            severity=ERROR,
        )

    @staticmethod
    def _is_none(node) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    @staticmethod
    def _terminal(node) -> "str | None":
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None
