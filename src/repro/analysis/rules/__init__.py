"""The rule set: one class per repo contract.

``all_rules()`` builds a fresh instance of every rule with its default
configuration; the CLI's ``--select`` / ``--ignore`` filter by id.
"""

from __future__ import annotations

from repro.analysis.rules.contracts import ContractCoverageRule
from repro.analysis.rules.local import (
    BroadExceptRule,
    DeterminismRule,
    DurabilityRule,
    GlobalMemoRule,
    HotPathAllocationRule,
    PickleSafetyRule,
    StrictJsonRule,
)

__all__ = [
    "BroadExceptRule",
    "ContractCoverageRule",
    "DeterminismRule",
    "DurabilityRule",
    "GlobalMemoRule",
    "HotPathAllocationRule",
    "PickleSafetyRule",
    "StrictJsonRule",
    "all_rules",
]


def all_rules() -> list:
    """Fresh default-configured instances of every rule, in id order."""
    rules = [
        BroadExceptRule(),
        ContractCoverageRule(),
        DeterminismRule(),
        DurabilityRule(),
        GlobalMemoRule(),
        HotPathAllocationRule(),
        PickleSafetyRule(),
        StrictJsonRule(),
    ]
    return sorted(rules, key=lambda rule: rule.id)
