"""Good/bad fixture pairs for every file-local rule, plus pragma semantics.

Each bad fixture asserts the exact rule id **and** line, so a rule that
drifts to a neighbouring node (decorator line, enclosing statement) fails
here before it confuses a CI reader.
"""

from __future__ import annotations

import pytest

from analysis_helpers import lint_file
from repro.analysis.engine import ERROR, WARNING, lint_paths
from repro.analysis.rules import all_rules
from repro.analysis.rules.local import (
    BroadExceptRule,
    DeterminismRule,
    DurabilityRule,
    GlobalMemoRule,
    HotPathAllocationRule,
    PickleSafetyRule,
    StrictJsonRule,
)

def lines_of(findings) -> list[int]:
    return [finding.line for finding in findings]


@pytest.fixture
def lint_source(tmp_path):
    def _lint(source, rules, name="mod.py"):
        return lint_file(tmp_path, source, rules, name)

    return _lint


# ------------------------------------------------------------- determinism
class TestDeterminism:
    def test_bad_fixture(self, lint_source):
        findings = lint_source(
            """\
            import random
            import time

            import numpy as np


            def bad():
                rng = np.random.default_rng()
                draw = np.random.standard_normal(3)
                coin = random.random()
                stamp = time.time()
                return rng, draw, coin, stamp
            """,
            [DeterminismRule()],
        )
        assert [finding.rule for finding in findings] == ["determinism"] * 4
        assert lines_of(findings) == [8, 9, 10, 11]
        assert all(finding.severity == ERROR for finding in findings)

    def test_good_fixture(self, lint_source):
        findings = lint_source(
            """\
            import random
            import time

            import numpy as np


            def good(seed):
                rng = np.random.default_rng(seed)
                child = np.random.SeedSequence(seed).spawn(1)[0]
                coin = random.Random(seed).random()
                elapsed = time.monotonic()
                return rng, child, coin, elapsed
            """,
            [DeterminismRule()],
        )
        assert findings == []

    def test_import_alias_is_resolved(self, lint_source):
        """The rule keys on the *resolved* module, not the literal ``np.``."""
        findings = lint_source(
            """\
            import numpy.random as npr

            value = npr.standard_normal(3)
            """,
            [DeterminismRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [("determinism", 3)]

    def test_builtin_hash_bad_fixture(self, lint_source):
        findings = lint_source(
            """\
            import builtins


            def dataset_seed(name, seed):
                salted = seed + hash(name) % 10_000
                return salted, builtins.hash(name)
            """,
            [DeterminismRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("determinism", 5),
            ("determinism", 6),
        ]

    def test_builtin_hash_good_fixture(self, lint_source):
        """A stable digest is fine, and so is a module that rebinds ``hash``."""
        findings = lint_source(
            """\
            import zlib
            from hashlib import sha256 as hash


            def dataset_seed(name, seed):
                stable = seed + zlib.crc32(name.encode("utf-8")) % 10_000
                return stable, hash(name.encode("utf-8")).hexdigest()
            """,
            [DeterminismRule()],
        )
        assert findings == []


# -------------------------------------------------------------- strict-json
class TestStrictJson:
    def test_bad_fixture(self, lint_source):
        findings = lint_source(
            """\
            import json


            def save(obj, handle):
                json.dump(obj, handle)
                return json.dumps(obj)
            """,
            [StrictJsonRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("strict-json", 5),
            ("strict-json", 6),
        ]

    def test_good_fixture(self, lint_source):
        findings = lint_source(
            """\
            import json


            def save(obj, handle):
                json.dump(obj, handle, allow_nan=False)
                return json.dumps(obj, allow_nan=False)
            """,
            [StrictJsonRule()],
        )
        assert findings == []

    def test_jsonio_module_is_exempt(self, lint_source):
        """The strict-JSON helpers themselves may call bare ``json.dumps``."""
        findings = lint_source(
            """\
            import json


            def dumps_strict(obj):
                return json.dumps(obj)
            """,
            [StrictJsonRule()],
            name="repro/core/jsonio.py",
        )
        assert findings == []


# -------------------------------------------------------------- durability
class TestDurability:
    def test_bad_fixture(self, lint_source):
        findings = lint_source(
            """\
            import os


            def swap(tmp, dst):
                os.replace(tmp, dst)
            """,
            [DurabilityRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [("durability", 5)]
        assert findings[0].severity == ERROR

    def test_good_fixture(self, lint_source):
        findings = lint_source(
            """\
            import os

            from repro.core.durability import fsync_dir


            def swap(tmp, dst, directory):
                os.replace(tmp, dst)
                fsync_dir(directory)
            """,
            [DurabilityRule()],
        )
        assert findings == []

    def test_delegating_to_atomic_write_text_is_fine(self, lint_source):
        findings = lint_source(
            """\
            from repro.core.durability import atomic_write_text


            def save(directory, path, payload):
                atomic_write_text(directory, path, payload)
            """,
            [DurabilityRule()],
        )
        assert findings == []


# ----------------------------------------------------------- hot-path-alloc
class TestHotPathAllocation:
    def test_bad_fixture(self, lint_source):
        findings = lint_source(
            """\
            import numpy as np

            from repro.core.hotpath import hot_path


            @hot_path
            def step(a, b, scratch):
                grown = np.concatenate((a, b))
                fresh = np.exp(a)
                np.exp(a, out=scratch)
                return grown, fresh
            """,
            [HotPathAllocationRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("hot-path-alloc", 8),
            ("hot-path-alloc", 9),
        ]
        assert all(finding.severity == WARNING for finding in findings)

    def test_good_fixture_unmarked_function_is_ignored(self, lint_source):
        findings = lint_source(
            """\
            import numpy as np


            def cold(a, b):
                return np.concatenate((a, b))
            """,
            [HotPathAllocationRule()],
        )
        assert findings == []

    def test_extra_functions_config(self, lint_source):
        """Config-listed qualnames are hot even without the decorator."""
        findings = lint_source(
            """\
            import numpy as np


            class Kernel:
                def advance(self, a, b):
                    return np.concatenate((a, b))
            """,
            [HotPathAllocationRule(extra_functions=["Kernel.advance"])],
        )
        assert [(f.rule, f.line) for f in findings] == [("hot-path-alloc", 6)]


# ------------------------------------------------------------- broad-except
class TestBroadExcept:
    def test_bad_fixture(self, lint_source):
        findings = lint_source(
            """\
            def swallow():
                try:
                    work()
                except Exception:
                    pass
                try:
                    work()
                except:
                    pass
            """,
            [BroadExceptRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("broad-except", 4),
            ("broad-except", 8),
        ]

    def test_good_fixture(self, lint_source):
        findings = lint_source(
            """\
            def handled():
                try:
                    work()
                except (ValueError, OSError):
                    pass
                try:
                    work()
                except Exception:
                    cleanup()
                    raise
            """,
            [BroadExceptRule()],
        )
        assert findings == []

    def test_noqa_ble001_with_reason_is_accepted(self, lint_source):
        findings = lint_source(
            """\
            def tolerant():
                try:
                    work()
                except Exception:  # noqa: BLE001 - worker result is data
                    pass
            """,
            [BroadExceptRule()],
        )
        assert findings == []


# ------------------------------------------------------------ pickle-safety
class TestPickleSafety:
    def test_bad_fixture(self, lint_source):
        findings = lint_source(
            """\
            def launch(pool, spec):
                def payload():
                    return 1

                pool.submit(payload)
                return CellTask(spec, fn=lambda: 2)
            """,
            [PickleSafetyRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("pickle-safety", 5),
            ("pickle-safety", 6),
        ]
        assert "payload" in findings[0].message
        assert "lambda" in findings[1].message

    def test_good_fixture(self, lint_source):
        findings = lint_source(
            """\
            import functools


            def payload(spec):
                return 1


            def launch(pool, spec):
                pool.submit(payload)
                return CellTask(spec, fn=functools.partial(payload, spec))
            """,
            [PickleSafetyRule()],
        )
        assert findings == []

    def test_lambda_assigned_name_is_a_local_callable(self, lint_source):
        findings = lint_source(
            """\
            def launch(pool):
                fn = lambda: 2
                pool.submit(fn)
            """,
            [PickleSafetyRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [("pickle-safety", 3)]


# -------------------------------------------------------------- global-memo
class TestGlobalMemo:
    def test_bad_fixture(self, lint_source):
        findings = lint_source(
            """\
            import functools
            import functools as ft
            from functools import cache as memo
            from functools import lru_cache


            @lru_cache(maxsize=None)
            def one(n):
                return n


            @ft.cache
            def two(n):
                return n


            @memo
            def three(n):
                return n


            four = functools.lru_cache()(len)
            """,
            [GlobalMemoRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("global-memo", 7),
            ("global-memo", 12),
            ("global-memo", 17),
            ("global-memo", 22),
        ]
        assert all(finding.severity == ERROR for finding in findings)

    def test_good_fixture(self, lint_source):
        findings = lint_source(
            """\
            import functools


            class Table:
                def __init__(self):
                    self._memo = {}

                @functools.cached_property
                def size(self):
                    return len(self._memo)


            def lru_cache(fn):
                return fn


            @lru_cache
            def local_name_is_not_functools(n):
                return functools.partial(int, n)()
            """,
            [GlobalMemoRule()],
        )
        assert findings == []


# ----------------------------------------------------------------- pragmas
class TestPragmas:
    def test_disable_pragma_suppresses_on_its_line(self, lint_source):
        findings = lint_source(
            """\
            import time

            stamp = time.time()  # lint: disable=determinism -- wall-clock log stamp
            other = time.time()
            """,
            [DeterminismRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [("determinism", 4)]

    def test_pragma_for_other_rule_does_not_suppress(self, lint_source):
        findings = lint_source(
            """\
            import time

            stamp = time.time()  # lint: disable=strict-json -- wrong rule
            """,
            [DeterminismRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [("determinism", 3)]

    def test_disable_all_suppresses_every_rule(self, lint_source):
        findings = lint_source(
            """\
            import time

            stamp = time.time()  # lint: disable=all -- fixture escape hatch
            """,
            [DeterminismRule()],
        )
        assert findings == []

    def test_rationale_required_rule_rejects_bare_pragma(self, lint_source):
        """broad-except pragmas without ``-- why`` still fail, loudly."""
        findings = lint_source(
            """\
            def swallow():
                try:
                    work()
                except Exception:  # lint: disable=broad-except
                    pass
            """,
            [BroadExceptRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [("broad-except", 4)]
        assert "missing" in findings[0].message and "rationale" in findings[0].message

    def test_rationale_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """\
            def swallow():
                try:
                    work()
                except Exception:  # lint: disable=broad-except -- detector state is per-cell data
                    pass
            """,
            [BroadExceptRule()],
        )
        assert findings == []

    def test_pragma_inside_string_literal_is_not_a_pragma(self, lint_source):
        """Pragmas are parsed from real comment tokens, not substrings."""
        findings = lint_source(
            '''\
            import time

            stamp = time.time(); note = "# lint: disable=determinism -- not a comment"
            ''',
            [DeterminismRule()],
        )
        assert [(f.rule, f.line) for f in findings] == [("determinism", 3)]


# --------------------------------------------------------------- machinery
class TestMachinery:
    def test_all_rules_cover_the_documented_ids(self):
        assert sorted(rule.id for rule in all_rules()) == [
            "broad-except",
            "contract-coverage",
            "determinism",
            "durability",
            "global-memo",
            "hot-path-alloc",
            "pickle-safety",
            "strict-json",
        ]

    def test_syntax_error_becomes_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        findings = lint_paths([path], all_rules())
        assert [finding.rule for finding in findings] == ["syntax-error"]
        assert findings[0].severity == ERROR

    def test_strict_escalates_warnings_to_errors(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def swallow():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n",
            encoding="utf-8",
        )
        relaxed = lint_paths([path], [BroadExceptRule()])
        strict = lint_paths([path], [BroadExceptRule()], strict=True)
        assert [finding.severity for finding in relaxed] == [WARNING]
        assert [finding.severity for finding in strict] == [ERROR]
