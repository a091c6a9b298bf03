"""Cache replacement policies: the CLIC paper's baselines (LRU, ARC, TQ, OPT)."""

from repro.cache.arc import ARCPolicy
from repro.cache.base import CachePolicy, CacheStats
from repro.cache.lru import LRUPolicy
from repro.cache.opt import OPTPolicy
from repro.cache.registry import (
    PAPER_POLICIES,
    available_policies,
    create_policy,
    register_policy,
)
from repro.cache.tq import TQPolicy

__all__ = [
    "CachePolicy",
    "CacheStats",
    "LRUPolicy",
    "ARCPolicy",
    "OPTPolicy",
    "TQPolicy",
    "PAPER_POLICIES",
    "available_policies",
    "create_policy",
    "register_policy",
]
