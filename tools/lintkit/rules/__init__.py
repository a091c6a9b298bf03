"""Rule catalogue: every lintkit rule, grouped by family."""

from __future__ import annotations

from tools.lintkit.core import Rule
from tools.lintkit.rules.batch_parity import BatchKernelParityRule
from tools.lintkit.rules.int_clock import IntClockFloatRule
from tools.lintkit.rules.kernel_contract import (
    KernelAccessOutcomeRule,
    KernelNoIORule,
    KernelRequestMutationRule,
)
from tools.lintkit.rules.nondeterminism import (
    EntropySourceRule,
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from tools.lintkit.rules.observer_purity import ObserverParamMutationRule
from tools.lintkit.rules.registry_complete import (
    RegistryGoldenFixtureRule,
    RegistryInvariantSuiteRule,
    RegistryPolicyUnregisteredRule,
)
from tools.lintkit.rules.typing_gate import TypingAnnotationsRule

__all__ = ["ALL_RULES", "rule_catalogue"]

#: Every rule, in reporting order.  The tuple is the single source of truth:
#: the CLI's ``--list-rules``, the docs table and the self-tests all derive
#: from it.
ALL_RULES: tuple[Rule, ...] = (
    # family 1: no-nondeterminism
    WallClockRule(),
    UnseededRandomRule(),
    EntropySourceRule(),
    SetIterationRule(),
    # family 2: kernel-contract
    KernelAccessOutcomeRule(),
    KernelNoIORule(),
    KernelRequestMutationRule(),
    BatchKernelParityRule(),
    # family 3: observer-purity
    ObserverParamMutationRule(),
    # family 4: int-clock-safety
    IntClockFloatRule(),
    # family 5: registry-completeness
    RegistryGoldenFixtureRule(),
    RegistryInvariantSuiteRule(),
    RegistryPolicyUnregisteredRule(),
    # family 6: typing-gate
    TypingAnnotationsRule(),
)


def rule_catalogue() -> list[tuple[str, str]]:
    """(rule id, summary) pairs for every rule."""
    return [(rule.rule_id, rule.summary) for rule in ALL_RULES]
