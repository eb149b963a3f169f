"""Helpers for the linter's own test suite.

Deliberately *not* a ``conftest.py``: every ``conftest.py`` outside a
package is imported as the top-level module ``conftest``, so helpers imported
by name from one would resolve to whichever conftest pytest loaded last.
Test modules import this by name: the test file's own directory is on
``sys.path``.

Every rule test follows the same shape: write a small fixture module into
``tmp_path``, lint it with exactly one rule, and assert on ``(rule, line)``
pairs — the same contract a CI reader has with a lint failure.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.engine import lint_paths


def lint_file(tmp_path: Path, source: str, rules, name: str = "mod.py"):
    """Lint ``source`` (dedented) as a file named ``name`` under tmp_path."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([path], rules)


def write_tree(root: Path, files: dict) -> None:
    """Materialise ``{relative_path: content}`` under ``root``."""
    for relative, content in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
