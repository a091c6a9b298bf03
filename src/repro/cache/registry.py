"""Name-based registry of cache replacement policies.

The simulator, experiment harness and example scripts refer to policies by
their short names ("CLIC", "LRU", "ARC", "TQ", "OPT", ...).  The registry
maps those names to factories so new policies — including user-defined ones —
can be plugged into every experiment without touching the harness.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.cache.arc import ARCPolicy
from repro.cache.base import CachePolicy
from repro.cache.lru import LRUPolicy
from repro.cache.opt import OPTPolicy
from repro.cache.tq import TQPolicy

__all__ = [
    "PolicyFactory",
    "register_policy",
    "create_policy",
    "available_policies",
    "PAPER_POLICIES",
]

PolicyFactory = Callable[..., CachePolicy]

_REGISTRY: dict[str, PolicyFactory] = {}

#: The five policies compared in the paper's evaluation (Section 6.1).
PAPER_POLICIES: tuple[str, ...] = ("OPT", "LRU", "ARC", "TQ", "CLIC")


def register_policy(name: str, factory: PolicyFactory, overwrite: bool = False) -> None:
    """Register *factory* under *name* (case-insensitive lookup).

    Raises ``ValueError`` if the name is already taken and ``overwrite`` is
    false.
    """
    key = name.upper()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"policy {name!r} is already registered")
    _REGISTRY[key] = factory


def create_policy(name: str, capacity: int, **kwargs: Any) -> CachePolicy:
    """Instantiate the policy registered under *name* with the given capacity."""
    key = name.upper()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key](capacity=capacity, **kwargs)


def available_policies() -> Iterable[str]:
    """Names of all registered policies, sorted."""
    return sorted(_REGISTRY)


def _sharded_factory(capacity: int, **kwargs: Any) -> CachePolicy:
    # ShardedCache lives in the simulation layer (it composes policies built
    # through this registry), so it is imported at call time: registering it
    # here keeps "SHARDED" resolvable in every process — sweep workers
    # rebuild policies from pickled (name, kwargs) specs — without a
    # circular import at module load.
    from repro.simulation.cluster import ShardedCache

    return ShardedCache(capacity=capacity, **kwargs)


def _register_builtins() -> None:
    # CLICPolicy is imported lazily to avoid a circular import at module load
    # (repro.core.clic depends on repro.cache.base).
    from repro.core.clic import CLICPolicy

    builtin: dict[str, PolicyFactory] = {
        "LRU": LRUPolicy,
        "ARC": ARCPolicy,
        "OPT": OPTPolicy,
        "TQ": TQPolicy,
        "CLIC": CLICPolicy,
        "SHARDED": _sharded_factory,
    }
    for name, factory in builtin.items():
        register_policy(name, factory, overwrite=True)


_register_builtins()
