"""Every ``repro`` module imports on its own, as the first ``repro`` import.

An import cycle only shows when a module of the cycle is the first one a
process imports, so the probe forgets every ``repro`` module before each
import.  It also resolves every name each module's ``__all__`` exports, which
the PEP 562-lazy packages (``repro``, ``repro.core``) resolve on access.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = textwrap.dedent(
    """\
    import importlib
    import sys
    import traceback

    failures = []
    for name in sys.argv[1:]:
        for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[loaded]
        try:
            module = importlib.import_module(name)
            for export in getattr(module, "__all__", ()):
                getattr(module, export)
        except Exception:
            failures.append(f"{name}: {traceback.format_exc(limit=-1)}")
    print("".join(failures))
    sys.exit(1 if failures else 0)
    """
)


def repro_modules() -> list:
    """Every module under ``src/repro``; ``__main__`` entry points excluded."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if "__pycache__" in path.parts or path.stem == "__main__":
            continue
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_module_imports_first_in_a_fresh_process_state():
    modules = repro_modules()
    assert {"repro", "repro.core", "repro.detectors.wstd"} <= set(modules)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *modules],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
