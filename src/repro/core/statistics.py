"""Per-hint-set statistics: the CLIC hint table (Section 3.1).

For every hint set ``H`` observed by the server, CLIC tracks:

* ``N(H)``   — total number of requests carrying ``H``;
* ``Nr(H)``  — number of those requests whose *next* request for the same
  page was a read ("read re-references");
* ``D(H)``   — average re-reference distance (in requests) of those read
  re-references.

From these, the expected benefit is ``fhit(H) = Nr(H) / N(H)`` (Equation 1)
and the caching priority is ``Pr(H) = fhit(H) / D(H)`` (Equation 2).

Two interchangeable trackers implement this interface:

* :class:`HintTable` keeps exact statistics for every observed hint set;
* :class:`~repro.core.spacesaving.SpaceSavingTracker` (Section 5) bounds the
  number of tracked hint sets to ``k`` using the Space-Saving algorithm.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = ["HintSetStats", "HintStatsTracker", "HintTable", "compute_priority"]


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


class HintStatsTracker(abc.ABC):
    """Interface shared by the exact hint table and the top-k tracker."""

    @abc.abstractmethod
    def record_request(self, hint_key: tuple) -> None:
        """Count one arriving request with hint set *hint_key* (N(H) += 1)."""

    @abc.abstractmethod
    def record_read_rereference(self, hint_key: tuple, distance: int) -> None:
        """Count a read re-reference of a request that carried *hint_key*.

        ``distance`` is the difference between the sequence numbers of the
        re-referencing read and the original request.
        """

    @abc.abstractmethod
    def snapshot(self) -> Mapping[tuple, HintSetStats]:
        """Return the statistics of every currently tracked hint set."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Forget all statistics (called at window boundaries, Section 3.2)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of hint sets currently tracked."""

    def priorities(self) -> dict[tuple, float]:
        """Convenience: hint-set key -> Pr(H) for every tracked hint set."""
        return {key: compute_priority(stats) for key, stats in self.snapshot().items()}

    # ------------------------------------------------------------- batch path
    # The columnar CLIC kernel defers a whole window segment's tracker
    # updates and applies them at the segment boundary (see
    # :meth:`repro.core.priority.PriorityManager.record_segment`).  The
    # defaults below are the conservative contract any tracker satisfies;
    # HintTable and SpaceSavingTracker override them with exact fast paths.

    def accepts_rereference(self, hint_key: tuple) -> bool:
        """Whether :meth:`record_read_rereference` would credit *hint_key*
        right now.  The batch path uses this to pre-filter deferred credits
        with segment-start semantics."""
        return True

    def can_defer(self, hint_keys: Iterable[tuple]) -> bool:
        """Whether a segment touching exactly *hint_keys* may be applied as
        per-key counts instead of ordered per-request calls.  Defaults to
        ``False`` (always replay ordered) so unknown trackers stay exact."""
        return False

    def record_request_count(self, hint_key: tuple, count: int) -> None:
        """Count *count* consecutive requests of one hint set.

        Only called when :meth:`can_defer` approved the segment; the default
        simply loops :meth:`record_request`.
        """
        for _ in range(count):
            self.record_request(hint_key)

    def record_read_rereferences(
        self, hint_key: tuple, credits: int, distance_total: int
    ) -> None:
        """Count *credits* read re-references of *hint_key* at once, their
        distances summing to *distance_total*.

        Only called when :meth:`can_defer` approved the segment, so a
        tracker that can defer must implement it.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot take credit totals")


class HintTable(HintStatsTracker):
    """Exact per-hint-set statistics, one entry per observed hint set."""

    def __init__(self) -> None:
        self._stats: dict[tuple, HintSetStats] = {}

    def record_request(self, hint_key: tuple) -> None:
        stats = self._stats.get(hint_key)
        if stats is None:
            stats = HintSetStats()
            self._stats[hint_key] = stats
        stats.requests += 1

    def record_read_rereference(self, hint_key: tuple, distance: int) -> None:
        if distance <= 0:
            raise ValueError(f"re-reference distance must be positive, got {distance}")
        self.record_read_rereferences(hint_key, 1, distance)

    # The exact table has no eviction, so every batch shortcut is exact:
    # request counts are plain integer adds and re-reference credits are
    # always accepted (matching record_read_rereference above).
    def can_defer(self, hint_keys: Iterable[tuple]) -> bool:
        return True

    def record_request_count(self, hint_key: tuple, count: int) -> None:
        stats = self._stats.get(hint_key)
        if stats is None:
            stats = HintSetStats()
            self._stats[hint_key] = stats
        stats.requests += count

    def record_read_rereferences(
        self, hint_key: tuple, credits: int, distance_total: int
    ) -> None:
        stats = self._stats.get(hint_key)
        if stats is None:
            # The original request predates the current statistics window (the
            # table was cleared since).  Count the re-reference anyway so that
            # hint sets whose pages linger in the cache across windows still
            # receive credit; the paper's description leaves this corner to
            # the implementation.
            stats = HintSetStats()
            self._stats[hint_key] = stats
        stats.read_rereferences += credits
        stats.distance_total += distance_total

    def snapshot(self) -> Mapping[tuple, HintSetStats]:
        return dict(self._stats)

    def get(self, hint_key: tuple) -> HintSetStats | None:
        return self._stats.get(hint_key)

    def clear(self) -> None:
        self._stats.clear()

    def __len__(self) -> int:
        return len(self._stats)

    def keys(self) -> Iterable[tuple]:
        return self._stats.keys()
