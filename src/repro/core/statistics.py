"""Per-hint-set statistics and the caching priority (Section 3.1).

For a hint set ``H``, CLIC counts:

* ``N(H)``   — the requests carrying ``H``;
* ``Nr(H)``  — those of them whose *next* request for the same page was a
  read ("read re-references");
* ``D(H)``   — the mean re-reference distance (in requests) of those read
  re-references.

From these, the expected benefit is ``fhit(H) = Nr(H) / N(H)`` (Equation 1)
and the caching priority is ``Pr(H) = fhit(H) / D(H)`` (Equation 2).

CLICPolicy learns these on-line, per window, in its C kernel
(:mod:`repro.core.clic`); Figure 3's offline hint analysis
(:mod:`repro.analysis.hint_analysis`) accumulates them over a whole trace
with :class:`HintSetStats` and :func:`compute_priority`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HintSetStats", "compute_priority"]


@dataclass
class HintSetStats:
    """Mutable statistics accumulator for a single hint set."""

    requests: int = 0            # N(H)
    read_rereferences: int = 0   # Nr(H)
    distance_total: float = 0.0  # sum of re-reference distances

    @property
    def n(self) -> int:
        return self.requests

    @property
    def nr(self) -> int:
        return self.read_rereferences

    @property
    def read_hit_rate(self) -> float:
        """``fhit(H) = Nr(H) / N(H)`` (Equation 1)."""
        if self.requests == 0:
            return 0.0
        return self.read_rereferences / self.requests

    @property
    def mean_distance(self) -> float:
        """``D(H)``: mean read re-reference distance; 0.0 when Nr(H) == 0."""
        if self.read_rereferences == 0:
            return 0.0
        return self.distance_total / self.read_rereferences

    @property
    def priority(self) -> float:
        """``Pr(H) = fhit(H) / D(H)`` (Equation 2); 0.0 when undefined."""
        return compute_priority(self)


def compute_priority(stats: HintSetStats) -> float:
    """Benefit/cost priority of a hint set (Equation 2).

    A hint set with no observed read re-reference has zero expected benefit
    and therefore zero priority.
    """
    if stats.read_rereferences == 0 or stats.requests == 0:
        return 0.0
    fhit = stats.read_rereferences / stats.requests
    distance = stats.distance_total / stats.read_rereferences
    if distance <= 0.0:
        # Re-reference distances are >= 1 by construction; guard anyway.
        return 0.0
    return fhit / distance
