"""Core CLIC machinery: hints, hint statistics and the policy."""

from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import EMPTY_HINT_SET, HintSchema, HintSet, HintType, make_hint_set
from repro.core.statistics import HintSetStats, compute_priority

__all__ = [
    "CLICPolicy",
    "CLICConfig",
    "EMPTY_HINT_SET",
    "HintSchema",
    "HintSet",
    "HintType",
    "make_hint_set",
    "HintSetStats",
    "compute_priority",
]
