"""lintkit — the repository's determinism & kernel-contract static analyzer.

The reproduction's load-bearing guarantees — bit-identical ``jobs=1 ==
jobs=N`` replay, the policy-kernel/observer contract, the exact
integer-nanosecond queueing clock — are laws of the *whole* codebase, not of
the handful of configurations the runtime tests happen to sample.  lintkit
enforces the machine-checkable part of those laws on every file, at CI time:

* **no-nondeterminism** — no wall-clock reads, no unseeded randomness, no
  set/frozenset iteration flowing into ordering-sensitive sinks;
* **kernel-contract** — registered cache policies implement
  ``batch_access(chunk) -> AccessOutcomeBatch`` and perform no I/O and no
  store into the chunk they are handed;
* **observer-purity** — replay observers mutate only their own state;
* **int-clock-safety** — nothing float-valued feeds an integer-nanosecond
  (``*_ns``) clock accumulator;
* **registry-completeness** — experiments have golden fixtures, the
  invariant suite derives from the policy registry, policy classes are
  registered;
* **typing-gate** — full parameter/return annotations in the strictly
  typed packages.

Run it from the repository root::

    python -m tools.lintkit src/repro

See ``docs/static-analysis.md`` for the rule catalogue and the suppression
syntax (``# lintkit: ignore[rule-id] <reason>``).
"""

from tools.lintkit.core import (
    LintConfig,
    Project,
    RunResult,
    Violation,
    run_paths,
)
from tools.lintkit.rules import ALL_RULES, rule_catalogue

__all__ = [
    "ALL_RULES",
    "LintConfig",
    "Project",
    "RunResult",
    "Violation",
    "rule_catalogue",
    "run_paths",
]
