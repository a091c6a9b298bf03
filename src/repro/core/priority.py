"""Windowed hint-set priority estimation (Sections 3 and 3.2).

CLIC divides the request stream into non-overlapping windows of ``W``
requests.  During window ``i`` it collects statistics with a
:class:`~repro.core.statistics.HintStatsTracker`; at the window boundary it
computes the per-window priorities ``p̂r(H)_i = fhit(H) / D(H)`` and blends
them into the running priorities with exponential smoothing (Equation 3)::

    Pr(H)_i = r * p̂r(H)_i + (1 - r) * Pr(H)_{i-1}

The blended priorities drive the replacement policy during window ``i + 1``.
Hint sets that have never been observed have priority zero.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.statistics import HintStatsTracker, HintTable
from repro.core.spacesaving import SpaceSavingTracker

__all__ = ["PriorityManager"]


class PriorityManager:
    """Maintains smoothed caching priorities ``Pr(H)`` across request windows."""

    def __init__(
        self,
        window_size: int,
        decay: float = 1.0,
        top_k: int | None = None,
    ):
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self._window_size = window_size
        self._decay = decay
        self._tracker: HintStatsTracker = (
            HintTable() if top_k is None else SpaceSavingTracker(top_k)
        )
        self._priorities: dict[tuple, float] = {}
        self._requests_in_window = 0
        self._windows_completed = 0

    # ------------------------------------------------------------ properties
    @property
    def window_size(self) -> int:
        return self._window_size

    @property
    def decay(self) -> float:
        return self._decay

    @property
    def tracker(self) -> HintStatsTracker:
        return self._tracker

    @property
    def windows_completed(self) -> int:
        return self._windows_completed

    @property
    def requests_in_window(self) -> int:
        return self._requests_in_window

    # --------------------------------------------------------------- updates
    def priority(self, hint_key: tuple) -> float:
        """Current caching priority ``Pr(H)``; zero for unknown hint sets."""
        return self._priorities.get(hint_key, 0.0)

    @property
    def mapping(self) -> Mapping[tuple, float]:
        """The live priority map (hint-set key -> Pr(H)).

        Exposed for the policy, which copies it into its ``Pr`` table when
        a window closes; it is frozen between window boundaries.  Treat as
        read-only; missing keys mean priority 0.0.
        """
        return self._priorities

    def priorities(self) -> Mapping[tuple, float]:
        """A copy of the current priority assignment."""
        return dict(self._priorities)

    def record_request(self, hint_key: tuple) -> bool:
        """Count one request towards the current window.

        Returns ``True`` when the request closes the window (the caller should
        then rebuild any priority-ordered structures, since priorities changed).
        """
        self._tracker.record_request(hint_key)
        self._requests_in_window += 1
        if self._requests_in_window >= self._window_size:
            self._finish_window()
            return True
        return False

    def record_read_rereference(self, hint_key: tuple, distance: int) -> None:
        """Credit a read re-reference to the hint set of the original request."""
        self._tracker.record_read_rereference(hint_key, distance)

    def window_room(self) -> int:
        """Requests the current window still accepts before it closes.

        Always >= 1: a window is finished the moment it fills, so the batch
        path can segment a chunk by taking at most this many requests per
        :meth:`record_segment` call.
        """
        return self._window_size - self._requests_in_window

    def record_segment(
        self,
        counts: Sequence[tuple[tuple, int]],
        rereferences: Sequence[tuple[tuple, int, int]],
        requests: int,
    ) -> bool:
        """Apply one deferred batch segment; returns whether it closed the window.

        *counts* holds ``(hint_key, n)`` pairs in **last-occurrence order**
        (the order the keys were last requested within the segment) — that is
        what keeps a Space-Saving tracker's tie-break order identical to the
        sequential replay.  *rereferences* holds ``(hint_key, credits,
        distance_total)`` per-key totals, in the order of each key's first
        credit in the segment, pre-filtered by the caller with segment-start
        :meth:`HintStatsTracker.accepts_rereference` semantics; applying them
        after the counts is exact because tracked-set membership only grows
        within a no-recycle segment, and totals equal the stream-order sums
        because credits and distances are integers far below ``2**53``.  The
        segment must not span a window boundary (``requests <=
        window_room()``), so the boundary falls on exactly the same request
        as in scalar replay.
        """
        if requests > self.window_room():
            raise ValueError(
                f"segment of {requests} requests overruns the window "
                f"(room {self.window_room()})"
            )
        tracker = self._tracker
        for hint_key, count in counts:
            tracker.record_request_count(hint_key, count)
        for hint_key, credits, distance_total in rereferences:
            tracker.record_read_rereferences(hint_key, credits, distance_total)
        self._requests_in_window += requests
        if self._requests_in_window >= self._window_size:
            self._finish_window()
            return True
        return False

    def _finish_window(self) -> None:
        window_priorities = self._tracker.priorities()
        r = self._decay
        updated: dict[tuple, float] = {}
        # Hint sets observed this window: blend new estimate with the old value.
        for key, fresh in window_priorities.items():
            previous = self._priorities.get(key, 0.0)
            updated[key] = r * fresh + (1.0 - r) * previous
        # Hint sets not observed this window decay towards zero (their fresh
        # estimate is zero); with r == 1 they are forgotten entirely.
        if r < 1.0:
            for key, previous in self._priorities.items():
                if key not in updated:
                    updated[key] = (1.0 - r) * previous
        self._priorities = updated
        self._tracker.clear()
        self._requests_in_window = 0
        self._windows_completed += 1
