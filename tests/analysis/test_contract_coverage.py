"""Fake-tree tests for the registry-vs-tests contract-coverage rule.

Each test builds a miniature repo layout under ``tmp_path`` (the real
``src/repro/...`` module paths, tiny contents), then mutates exactly one
coverage contract and asserts the rule fires on the registry line the
author of such a change would have touched.
"""

from __future__ import annotations

import pytest

from analysis_helpers import write_tree
from repro.analysis.engine import lint_paths
from repro.analysis.rules.contracts import ContractCoverageRule

REGISTRY = """\
    from repro.core.detector import DriftDetectorMixin


    class DDM(DriftDetectorMixin):
        def step(self, x, y_true, y_pred):
            return False


    def _build_ddm():
        return DDM()


    _REGISTRY: dict = {
        "ddm": _build_ddm,
        "none": None,
    }

    DETECTOR_NAMES = tuple(sorted(_REGISTRY))
"""

DETECTOR_BASE = """\
    class DriftDetectorMixin:
        def step_batch(self, X, y_true, y_pred):
            return []
"""

RESET_REPLAY = """\
    from repro.protocol.registry import DETECTOR_NAMES

    DETECTORS = [name for name in DETECTOR_NAMES if name != "none"]
"""

SNAPSHOT_SUITE = """\
    from repro.protocol.registry import DETECTOR_NAMES

    DETECTORS = [name for name in DETECTOR_NAMES if name != "none"]
"""

BASELINE = {
    "src/repro/__init__.py": "",
    "src/repro/core/__init__.py": "",
    "src/repro/core/detector.py": DETECTOR_BASE,
    "src/repro/protocol/__init__.py": "",
    "src/repro/protocol/registry.py": REGISTRY,
    "tests/golden/ddm.json": "{}",
    "tests/detectors/test_reset_replay.py": RESET_REPLAY,
    "tests/detectors/test_snapshot_roundtrip.py": SNAPSHOT_SUITE,
}


@pytest.fixture
def fake_repo(tmp_path):
    def _build(overrides: dict | None = None):
        files = dict(BASELINE)
        files.update(overrides or {})
        write_tree(tmp_path, files)
        return tmp_path

    return _build


def run_rule(root):
    return lint_paths(
        [root / "src"], [ContractCoverageRule()], project_root=root
    )


class TestContractCoverage:
    def test_baseline_tree_is_clean(self, fake_repo):
        assert run_rule(fake_repo()) == []

    def test_new_detector_without_golden_pin_fires(self, fake_repo):
        """Adding a registry entry without pins fails lint — the tentpole's
        acceptance criterion."""
        root = fake_repo(
            {
                "src/repro/protocol/registry.py": REGISTRY.replace(
                    '"ddm": _build_ddm,',
                    '"ddm": _build_ddm,\n        "eddm": _build_ddm,',
                )
            }
        )
        findings = run_rule(root)
        assert [finding.rule for finding in findings] == ["contract-coverage"]
        assert "eddm" in findings[0].message
        assert "golden" in findings[0].message
        # Anchored at the registry entry the author just added.
        assert findings[0].path.endswith("registry.py")
        assert findings[0].line == 15

    def test_hardcoded_reset_replay_list_fires_for_uncovered_detector(
        self, fake_repo
    ):
        root = fake_repo(
            {
                "src/repro/protocol/registry.py": REGISTRY.replace(
                    '"ddm": _build_ddm,',
                    '"ddm": _build_ddm,\n        "eddm": _build_ddm,',
                ),
                "tests/golden/eddm.json": "{}",
                # The suite pins a literal list instead of DETECTOR_NAMES.
                "tests/detectors/test_reset_replay.py": 'DETECTORS = ["ddm"]\n',
            }
        )
        findings = run_rule(root)
        assert [finding.rule for finding in findings] == ["contract-coverage"]
        assert "eddm" in findings[0].message
        assert "reset" in findings[0].message.lower()
        assert findings[0].line == 15

    def test_dynamic_reset_replay_list_covers_additions(self, fake_repo):
        """Deriving from DETECTOR_NAMES covers new detectors automatically."""
        root = fake_repo(
            {
                "src/repro/protocol/registry.py": REGISTRY.replace(
                    '"ddm": _build_ddm,',
                    '"ddm": _build_ddm,\n        "eddm": _build_ddm,',
                ),
                "tests/golden/eddm.json": "{}",
            }
        )
        assert run_rule(root) == []

    def test_detector_without_step_batch_fires(self, fake_repo):
        root = fake_repo(
            {
                "src/repro/core/detector.py": (
                    "class DriftDetectorMixin:\n"
                    "    def step(self, x, y_true, y_pred):\n"
                    "        return False\n"
                )
            }
        )
        findings = run_rule(root)
        assert [finding.rule for finding in findings] == ["contract-coverage"]
        assert "step_batch" in findings[0].message
        assert findings[0].line == 14  # the "ddm" registry entry

    def test_step_batch_inherited_through_import_chain_counts(self, fake_repo):
        """A re-exported base class defining step_batch satisfies the rule."""
        root = fake_repo(
            {
                "src/repro/core/detector.py": (
                    "from repro.core.base import ChunkExactBase\n"
                    "\n"
                    "\n"
                    "class DriftDetectorMixin(ChunkExactBase):\n"
                    "    pass\n"
                ),
                "src/repro/core/base.py": (
                    "class ChunkExactBase:\n"
                    "    def step_batch(self, X, y_true, y_pred):\n"
                    "        return []\n"
                ),
            }
        )
        assert run_rule(root) == []

    def test_unresolvable_builder_fires(self, fake_repo):
        root = fake_repo(
            {
                "src/repro/protocol/registry.py": REGISTRY.replace(
                    '"ddm": _build_ddm,',
                    '"ddm": _build_ddm,\n        "mystery": object(),',
                ),
                "tests/golden/mystery.json": "{}",
            }
        )
        findings = run_rule(root)
        assert [finding.rule for finding in findings] == ["contract-coverage"]
        assert "mystery" in findings[0].message
        assert findings[0].line == 15

    def test_missing_reset_replay_suite_fires_per_detector(self, fake_repo):
        root = fake_repo()
        (root / "tests/detectors/test_reset_replay.py").unlink()
        findings = run_rule(root)
        assert [finding.rule for finding in findings] == ["contract-coverage"]
        assert "missing" in findings[0].message

    def test_missing_snapshot_suite_fires_per_detector(self, fake_repo):
        root = fake_repo()
        (root / "tests/detectors/test_snapshot_roundtrip.py").unlink()
        findings = run_rule(root)
        assert [finding.rule for finding in findings] == ["contract-coverage"]
        assert "snapshot" in findings[0].message
        assert "missing" in findings[0].message

    def test_hardcoded_snapshot_list_fires_for_uncovered_detector(
        self, fake_repo
    ):
        root = fake_repo(
            {
                "src/repro/protocol/registry.py": REGISTRY.replace(
                    '"ddm": _build_ddm,',
                    '"ddm": _build_ddm,\n        "eddm": _build_ddm,',
                ),
                "tests/golden/eddm.json": "{}",
                # The suite pins a literal list instead of DETECTOR_NAMES.
                "tests/detectors/test_snapshot_roundtrip.py": (
                    'DETECTORS = ["ddm"]\n'
                ),
            }
        )
        findings = run_rule(root)
        assert [finding.rule for finding in findings] == ["contract-coverage"]
        assert "eddm" in findings[0].message
        assert "snapshot" in findings[0].message
        assert findings[0].line == 15

    def test_live_repo_registry_resolves_end_to_end(self):
        """Against the real tree: every registry detector resolves to a class
        with an in-repo ``step_batch``, and the rule stays silent."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        findings = lint_paths(
            [root / "src" / "repro"],
            [ContractCoverageRule()],
            project_root=root,
        )
        assert findings == []
