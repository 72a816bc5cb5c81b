"""reprolint rule registry."""

from __future__ import annotations

from repro.analysis.rules.base import Finding, Rule
from repro.analysis.rules.concurrency import (
    ForkResetRule,
    GuardedByRule,
    ModuleStateRule,
    MpContextRule,
    PoolOwnerRule,
)
from repro.analysis.rules.determinism import (
    GlobalRngRule,
    JsonSortKeysRule,
    SetIterationRule,
    WallClockRule,
)
from repro.analysis.rules.parity import FloatEqRule, HighsOwnerRule, KernelMutationRule
from repro.analysis.rules.robustness import SilentExceptRule, UnboundedRetryRule

__all__ = ["ALL_RULES", "Finding", "Rule", "rule_index"]

ALL_RULES: tuple[Rule, ...] = (
    GlobalRngRule(),
    SetIterationRule(),
    JsonSortKeysRule(),
    WallClockRule(),
    GuardedByRule(),
    ModuleStateRule(),
    MpContextRule(),
    PoolOwnerRule(),
    ForkResetRule(),
    FloatEqRule(),
    KernelMutationRule(),
    HighsOwnerRule(),
    SilentExceptRule(),
    UnboundedRetryRule(),
)


def rule_index() -> dict[str, Rule]:
    return {rule.rule_id: rule for rule in ALL_RULES}
