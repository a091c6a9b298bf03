"""Core CLIC machinery: hints, hint statistics, priorities and the policy."""

from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import EMPTY_HINT_SET, HintSchema, HintSet, HintType, make_hint_set
from repro.core.priority import PriorityManager
from repro.core.spacesaving import SpaceSaving, SpaceSavingTracker, TrackedItem
from repro.core.statistics import HintSetStats, HintStatsTracker, HintTable, compute_priority

__all__ = [
    "CLICPolicy",
    "CLICConfig",
    "EMPTY_HINT_SET",
    "HintSchema",
    "HintSet",
    "HintType",
    "make_hint_set",
    "PriorityManager",
    "SpaceSaving",
    "SpaceSavingTracker",
    "TrackedItem",
    "HintSetStats",
    "HintStatsTracker",
    "HintTable",
    "compute_priority",
]
