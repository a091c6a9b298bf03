"""Space-Saving frequent-item tracking of hint sets (Section 5).

The number of distinct hint sets can grow as large as the product of the
hint domain cardinalities, so CLIC bounds the space used for hint statistics
by tracking only the (approximately) ``k`` most frequent hint sets with the
Space-Saving algorithm of Metwally, Agrawal and El Abbadi (ICDT '05).

Space-Saving keeps ``k`` counters.  When an item arrives:

* if it is tracked, its count is incremented;
* else, if fewer than ``k`` items are tracked, it is added with count 1 and
  error 0;
* otherwise the tracked item with the minimum count ``m`` is *replaced* by
  the new item, which gets count ``m + 1`` and error ``m``.

``count - error`` is a guaranteed lower bound on an item's true frequency,
and the paper uses it as ``N(H)``.  The CLIC-specific extension
(:class:`SpaceSavingTracker`) adds, for each tracked hint set, a read
re-reference counter ``Nr(H)`` and a distance accumulator (for ``D(H)``)
that only accumulate while the hint set is being tracked; both are reset
when the hint set's slot is recycled.

Hint sets that are not currently tracked report ``Nr(H) = 0`` and therefore
``Pr(H) = 0``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.core.statistics import HintSetStats, HintStatsTracker

__all__ = ["TrackedItem", "SpaceSaving", "SpaceSavingTracker"]


@dataclass
class TrackedItem:
    """One Space-Saving counter."""

    item: Hashable
    count: int
    error: int
    #: Tie-break of the item's most recent heap entry.  Kept on the item so
    #: that compacting the lazy heap preserves the exact pop order among
    #: equal-count items.
    tiebreak: int = 0

    @property
    def guaranteed_count(self) -> int:
        """Lower bound on the item's true frequency (``count - error``)."""
        return self.count - self.error

    @property
    def guaranteed(self) -> bool:
        """Whether the item is guaranteed to have occurred (error-free at least once)."""
        return self.guaranteed_count > 0


class SpaceSaving:
    """The plain Space-Saving algorithm over a stream of hashable items.

    The implementation keeps a dict of tracked items plus a lazily-validated
    min-heap of ``(count, tiebreak, item)`` entries, giving amortised O(log k)
    per update; item replacement reuses the minimum-count slot exactly as the
    published algorithm prescribes.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k
        self._items: dict[Hashable, TrackedItem] = {}
        self._heap: list[tuple[int, int, Hashable]] = []
        self._tiebreak = itertools.count()
        self._processed = 0
        # Every increment pushes a fresh heap entry and leaves the old one
        # stale, so without compaction the heap grows with the stream length.
        # Rebuilding from the k live entries once the heap passes this bound
        # keeps memory O(k) at amortised O(1) extra cost per update.
        self._compact_limit = max(4 * k, 32)

    # --------------------------------------------------------------- update
    @property
    def k(self) -> int:
        return self._k

    @property
    def processed(self) -> int:
        """Total number of stream items offered so far."""
        return self._processed

    def offer(self, item: Hashable) -> tuple[Hashable | None, bool]:
        """Process one stream item.

        Returns ``(replaced_item, is_tracked_now)`` where ``replaced_item`` is
        the item whose slot was recycled (or ``None``), letting callers reset
        any side statistics they keep for evicted items.
        """
        self._processed += 1
        entry = self._items.get(item)
        if entry is not None:
            entry.count += 1
            self._push(entry)
            return None, True
        if len(self._items) < self._k:
            entry = TrackedItem(item=item, count=1, error=0)
            self._items[item] = entry
            self._push(entry)
            return None, True
        victim = self._pop_min()
        min_count = self._items[victim].count
        del self._items[victim]
        entry = TrackedItem(item=item, count=min_count + 1, error=min_count)
        self._items[item] = entry
        self._push(entry)
        return victim, True

    def offer_repeat(self, item: Hashable, repeat: int) -> None:
        """Process *repeat* consecutive occurrences of one item at once.

        Counter-recycling is where tie-break order is decided, so this fast
        path refuses to replace: the caller must check :meth:`would_recycle`
        over the batch's distinct items first and fall back to ordered
        :meth:`offer` calls when recycling is possible.  For the no-recycle
        case a single push with a fresh tiebreak leaves the heap's *pop
        order* exactly as ``repeat`` sequential offers would have: an item's
        tiebreak always reflects its most recent offer, so batching items in
        last-occurrence order preserves the relative order among equal
        counts (pinned by the batch-vs-scalar regression suite in
        ``tests/core/test_spacesaving.py``).
        """
        if repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {repeat}")
        entry = self._items.get(item)
        if entry is None:
            if len(self._items) >= self._k:
                raise ValueError(
                    "offer_repeat would recycle a counter; replay the batch "
                    "through ordered offer() calls instead"
                )
            entry = TrackedItem(item=item, count=repeat, error=0)
            self._items[item] = entry
        else:
            entry.count += repeat
        self._processed += repeat
        self._push(entry)

    def would_recycle(self, items: Iterable[Hashable]) -> bool:
        """Whether offering every item of *items* could replace a counter."""
        tracked = self._items
        new = len({item for item in items if item not in tracked})
        return len(tracked) + new > self._k

    def _push(self, entry: TrackedItem) -> None:
        entry.tiebreak = next(self._tiebreak)
        heapq.heappush(self._heap, (entry.count, entry.tiebreak, entry.item))
        if len(self._heap) > self._compact_limit:
            self._compact()

    def _compact(self) -> None:
        """Drop stale heap entries, rebuilding from the live counters.

        Each item's live entry is reconstructed from the (count, tiebreak)
        stored on its :class:`TrackedItem`, so the pop order — including ties
        — is exactly what lazy deletion would have produced.
        """
        self._heap = [
            (entry.count, entry.tiebreak, item) for item, entry in self._items.items()
        ]
        heapq.heapify(self._heap)

    @property
    def heap_size(self) -> int:
        """Current size of the lazy heap (bounded by a small multiple of k)."""
        return len(self._heap)

    def _pop_min(self) -> Hashable:
        """Pop and return the currently tracked item with the minimum count."""
        while self._heap:
            count, _tiebreak, item = heapq.heappop(self._heap)
            entry = self._items.get(item)
            if entry is not None and entry.count == count:
                return item
        raise RuntimeError("Space-Saving heap exhausted")  # pragma: no cover

    # ------------------------------------------------------------ reporting
    def __contains__(self, item: Hashable) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def get(self, item: Hashable) -> TrackedItem | None:
        return self._items.get(item)

    def tracked(self) -> Mapping[Hashable, TrackedItem]:
        """All currently tracked items and their counters."""
        return dict(self._items)

    def top(self, n: int | None = None) -> list[TrackedItem]:
        """Tracked items sorted by estimated frequency (descending)."""
        entries = sorted(self._items.values(), key=lambda e: e.count, reverse=True)
        return entries if n is None else entries[:n]

    def clear(self) -> None:
        self._items.clear()
        self._heap.clear()
        self._processed = 0


class SpaceSavingTracker(HintStatsTracker):
    """Hint-set statistics bounded to ``k`` hint sets (paper Section 5).

    * ``N(H)``  — the Space-Saving frequency estimate minus its error bound;
    * ``Nr(H)`` — read re-references observed *while H is tracked*;
    * ``D(H)``  — mean distance of exactly those re-references.

    Untracked hint sets contribute nothing and have priority zero.
    """

    def __init__(self, k: int):
        self._summary = SpaceSaving(k)
        # Side statistics only for currently tracked hint sets.
        self._side: dict[tuple, HintSetStats] = {}

    @property
    def k(self) -> int:
        return self._summary.k

    def record_request(self, hint_key: tuple) -> None:
        replaced, _ = self._summary.offer(hint_key)
        if replaced is not None:
            # The replaced hint set's slot is recycled: drop its side stats.
            self._side.pop(replaced, None)
        if hint_key not in self._side:
            self._side[hint_key] = HintSetStats()

    def record_read_rereference(self, hint_key: tuple, distance: int) -> None:
        if distance <= 0:
            raise ValueError(f"re-reference distance must be positive, got {distance}")
        self.record_read_rereferences(hint_key, 1, distance)

    # ------------------------------------------------------------- batch path
    def accepts_rereference(self, hint_key: tuple) -> bool:
        """A re-reference credit counts only while the hint set is tracked."""
        return hint_key in self._summary

    def can_defer(self, hint_keys: Iterable[tuple]) -> bool:
        """Deferred batching is exact only when no counter is recycled.

        Replacement decides tie-breaks among equal-count items, so a segment
        whose distinct hint keys would overflow the ``k`` counters must be
        replayed through ordered :meth:`record_request` calls instead.
        """
        return not self._summary.would_recycle(hint_keys)

    def record_request_count(self, hint_key: tuple, count: int) -> None:
        """Count *count* consecutive requests of one hint set (no recycling).

        Behaviourally identical to *count* sequential :meth:`record_request`
        calls when :meth:`can_defer` approved the batch: the summary's
        counter gains ``count`` with a fresh tiebreak, and the side stats
        slot exists afterwards, exactly as the scalar path leaves it.
        """
        self._summary.offer_repeat(hint_key, count)
        if hint_key not in self._side:
            self._side[hint_key] = HintSetStats()

    def record_read_rereferences(
        self, hint_key: tuple, credits: int, distance_total: int
    ) -> None:
        """*credits* re-references at once; like each of them, counted only
        while the hint set is tracked (paper Section 5)."""
        if hint_key not in self._summary:
            return
        stats = self._side.setdefault(hint_key, HintSetStats())
        stats.read_rereferences += credits
        stats.distance_total += distance_total

    def snapshot(self) -> Mapping[tuple, HintSetStats]:
        result: dict[tuple, HintSetStats] = {}
        for key, tracked in self._summary.tracked().items():
            side = self._side.get(key, HintSetStats())
            result[key] = HintSetStats(
                requests=max(tracked.guaranteed_count, 0),
                read_rereferences=side.read_rereferences,
                distance_total=side.distance_total,
            )
        return result

    def clear(self) -> None:
        self._summary.clear()
        self._side.clear()

    def __len__(self) -> int:
        return len(self._summary)
