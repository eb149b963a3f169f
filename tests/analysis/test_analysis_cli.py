"""CLI behaviour, the strict self-lint gate, and the stdlib-only guarantee."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.analysis as analysis
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


BAD_SOURCE = textwrap.dedent(
    """\
    import time

    stamp = time.time()
    """
)


class TestSelfLint:
    """The acceptance gate: the linter passes over its own repository."""

    def test_strict_self_lint_is_clean_via_api(self):
        findings = analysis.run(
            [REPO_ROOT / "src" / "repro"], strict=True, project_root=REPO_ROOT
        )
        assert findings == []

    def test_strict_self_lint_exits_zero_via_module_invocation(self):
        """Exactly what CI runs: ``python -m repro.analysis --strict src/repro``."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--strict", "src/repro"],
            cwd=REPO_ROOT,
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_no_suppression_baseline_file_exists(self):
        """Cleanliness comes from pragmas-with-rationale in the code, not
        from a checked-in baseline of grandfathered findings."""
        baselines = [
            path
            for path in REPO_ROOT.rglob("*baseline*")
            if ".git" not in path.parts and "test" not in path.name
        ]
        assert baselines == []


class TestStdlibOnly:
    def test_linter_runs_with_numpy_and_scipy_blocked(self, tmp_path):
        """The CI lint job installs nothing — prove the whole import chain
        (``import repro`` included) works with the science stack absent."""
        target = tmp_path / "mod.py"
        target.write_text(BAD_SOURCE, encoding="utf-8")
        probe = tmp_path / "probe.py"
        probe.write_text(
            textwrap.dedent(
                f"""\
                import sys


                class Blocker:
                    BLOCKED = {{"numpy", "scipy"}}

                    def find_spec(self, name, path=None, target=None):
                        if name.split(".")[0] in self.BLOCKED:
                            raise ImportError(f"{{name}} is blocked")
                        return None


                sys.meta_path.insert(0, Blocker())

                import repro  # the lazy __init__ must not touch numpy
                from repro.analysis import run

                findings = run([{str(target)!r}])
                assert [f.rule for f in findings] == ["determinism"], findings
                print("OK")
                """
            ),
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, str(probe)],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout

    def test_lazy_package_exports_still_resolve(self):
        """PEP 562 laziness must not break the public API surface."""
        import repro

        assert repro.RBMIM is not None
        assert "RBMIM" in dir(repro)


class TestCli:
    def test_exit_one_on_error_finding(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(BAD_SOURCE, encoding="utf-8")
        code, out = run_cli([str(path)], capsys)
        assert code == 1
        assert "determinism" in out
        assert f"{path}:3:" in out  # path:line:col prefix

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n", encoding="utf-8")
        code, out = run_cli([str(path)], capsys)
        assert code == 0

    def test_warnings_exit_zero_unless_strict(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(
            "def swallow():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n",
            encoding="utf-8",
        )
        relaxed, _ = run_cli([str(path)], capsys)
        strict, _ = run_cli(["--strict", str(path)], capsys)
        assert relaxed == 0
        assert strict == 1

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(BAD_SOURCE, encoding="utf-8")
        code, out = run_cli(["--format", "json", str(path)], capsys)
        payload = json.loads(out)
        assert code == 1
        assert payload["errors"] == 1
        assert payload["warnings"] == 0
        finding = payload["findings"][0]
        assert finding["rule"] == "determinism"
        assert finding["line"] == 3
        assert finding["severity"] == "error"

    def test_select_restricts_rules(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(BAD_SOURCE, encoding="utf-8")
        code, _ = run_cli(["--select", "strict-json", str(path)], capsys)
        assert code == 0  # the determinism finding is filtered out

    def test_unknown_rule_id_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "no-such-rule", str(path)])
        assert excinfo.value.code == 2

    def test_missing_path_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["/no/such/path/exists"])
        assert excinfo.value.code == 2

    def test_list_rules_names_every_rule(self, capsys):
        code, out = run_cli(["--list-rules"], capsys)
        assert code == 0
        for rule_id in (
            "determinism",
            "strict-json",
            "durability",
            "contract-coverage",
            "hot-path-alloc",
            "broad-except",
            "pickle-safety",
            "global-memo",
        ):
            assert rule_id in out
