"""Import-time contracts, each checked in a fresh interpreter.

* Every ``repro`` module imports on its own, as the first ``repro`` import.
  An import cycle only shows when a module of the cycle is the first one a
  process imports, so the probe forgets every ``repro`` module before each
  import.  It also resolves every name each module's ``__all__`` exports,
  which the PEP 562-lazy packages (``repro``, ``repro.core``) resolve on
  access.
* A protocol run does not load ``scipy.stats``: only the report statistics
  and WSTD's scipy reference need it, and they import it when called.
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


def run_fresh(probe: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_module_imports_first_in_a_fresh_process_state():
    modules = repro_modules()
    assert {"repro", "repro.core", "repro.detectors.wstd"} <= set(modules)
    result = run_fresh(PROBE, *modules)
    assert result.returncode == 0, result.stdout + result.stderr


COLD_START_PROBE = textwrap.dedent(
    """\
    import importlib
    import sys

    from repro.protocol import ProtocolPipeline, ProtocolSpec

    for name in sys.argv[2:]:
        importlib.import_module(name)
    pipeline = ProtocolPipeline(ProtocolSpec.quick(), sys.argv[1])
    summary = pipeline.run(backend="serial")
    assert summary.n_failed == 0, summary
    pipeline.status()
    pipeline.table().to_text()
    print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "stats"]))
    print("scipy.special" in sys.modules)
    """
)


def test_a_protocol_run_does_not_load_scipy_stats(tmp_path):
    packages = [
        name
        for name in repro_modules()
        if (SRC.joinpath(*name.split(".")) / "__init__.py").is_file()
    ]
    assert {"repro", "repro.protocol", "repro.evaluation"} <= set(packages)
    result = run_fresh(
        COLD_START_PROBE, str(tmp_path / "store"), *packages, "repro.protocol.__main__"
    )
    assert result.returncode == 0, result.stdout + result.stderr
    stats_modules, special_loaded = result.stdout.splitlines()[-2:]
    assert stats_modules == "[]"
    assert special_loaded == "True"
