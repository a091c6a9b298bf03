"""The scalar CLIC policy, its outqueue and its hint trackers: the reference
the C kernel is held to.

This is the pure-Python CLIC that ``repro.core.clic`` replaced with a C
kernel, one request at a time, unchanged in behaviour.  The parity suite
(``tests/cache/test_batch_parity.py``), the engine oracle
(``tests/simulation/test_engine_oracle.py``) and the invariant suite's
kernel-less case (``tests/test_registry_invariants.py``) replay it beside
the kernel and require identical outcomes and cached pages;
``tests/core/test_clic_kernel.py`` also requires identical learned
priorities, bit for bit.  ``tests/policy_reference.py`` registers it with
the other policies' references.

CLIC assigns every hint set ``H`` a caching priority ``Pr(H)`` learned
on-line from the read re-reference behaviour of requests that carried ``H``
(:class:`PriorityManager`).  The replacement policy (paper Figure 4) then
works as follows for a request ``(p, H)`` with sequence number ``s``:

* if ``p`` is cached, refresh ``seq(p)`` and ``H(p)`` — the most recent
  request always determines a page's priority;
* else, if the cache has free space, admit ``p``;
* else, let ``m`` be the minimum priority over all cached pages and ``v``
  the *oldest* (smallest ``seq``) page with priority ``m``.  If
  ``Pr(H) > m``, evict ``v`` (remembering it in the outqueue) and admit
  ``p``; otherwise do not cache ``p`` and remember it in the outqueue.

The implementation mirrors the constant-expected-time data structures the
paper describes: a hash map of cached pages, one recency-ordered list of
pages per hint set, and a (lazily validated) heap over hint sets keyed by
priority.  Priorities only change at window boundaries, at which point the
heap is rebuilt.

Every structure is indexed by a per-policy *hint id*: each hint-set key is
interned once to a dense int.  Cached-page metadata and outqueue entries are
plain ``(seq, hint_id)`` pairs, the recency lists and a ``Pr`` table are
lists indexed by id, and heap entries are ``(Pr, head_seq, hint_id)``.  Ids
never leave this module: the priority manager and its trackers stay keyed by
hint-key tuples, which the policy maps back to through its key list.

The outqueue (Section 3.1): in order to recognise read re-references, CLIC
remembers ``seq(p)`` (sequence number of the most recent request for p) and
``H(p)`` (hint set attached to that request) for every cached page *and* for
a fixed number ``Noutq`` of additional, uncached pages.  The latter live in
the outqueue.  When the outqueue is full, the least-recently inserted entry
is evicted, which deliberately biases CLIC towards detecting *short*
re-reference distances — exactly the re-references that lead to high caching
priority.

The hint trackers (Sections 3.1 and 5): :class:`HintTable` keeps exact
``N(H)``, ``Nr(H)`` and distance sums for every hint set seen in the
current window; :class:`SpaceSavingTracker` keeps them only for the ``k``
hint sets the Space-Saving algorithm (:class:`SpaceSaving`, Metwally,
Agrawal and El Abbadi, ICDT 2005) tracks.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple

from repro.core.config import CLICConfig
from repro.core.hints import HintSet
from repro.core.statistics import HintSetStats, compute_priority
from repro.simulation.request import IORequest

from tests.observer_reference import (
    HIT,
    MISS_ADMIT,
    MISS_BYPASS,
    AccessOutcome,
    ScalarPolicy,
)

__all__ = [
    "CLICPolicy",
    "HintStatsTracker",
    "HintTable",
    "OutQueue",
    "OutQueueEntry",
    "PriorityManager",
    "SpaceSaving",
    "SpaceSavingTracker",
    "TrackedItem",
]


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
        """Hint-set key -> Pr(H) for every tracked hint set."""
        return {key: compute_priority(stats) for key, stats in self.snapshot().items()}


class HintTable(HintStatsTracker):
    """Exact per-hint-set statistics, one entry per observed hint set."""

    def __init__(self) -> None:
        self._stats: dict[tuple, HintSetStats] = {}

    def record_request(self, hint_key: tuple) -> None:
        stats = self._stats.get(hint_key)
        if stats is None:
            stats = self._stats[hint_key] = HintSetStats()
        stats.requests += 1

    def record_read_rereference(self, hint_key: tuple, distance: int) -> None:
        if distance <= 0:
            raise ValueError(f"re-reference distance must be positive, got {distance}")
        stats = self._stats.get(hint_key)
        if stats is None:
            # The original request predates the current statistics window (the
            # table was cleared since).  Count the re-reference anyway so that
            # hint sets whose pages linger in the cache across windows still
            # receive credit; the paper's description leaves this corner to
            # the implementation.
            stats = self._stats[hint_key] = HintSetStats()
        stats.read_rereferences += 1
        stats.distance_total += distance

    def snapshot(self) -> Mapping[tuple, HintSetStats]:
        return dict(self._stats)

    def get(self, hint_key: tuple) -> HintSetStats | None:
        return self._stats.get(hint_key)

    def clear(self) -> None:
        self._stats.clear()

    def __len__(self) -> int:
        return len(self._stats)


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


class SpaceSaving:
    """The Space-Saving algorithm over a stream of hashable items.

    ``k`` counters.  An arriving item that is tracked has its count
    incremented; else, with fewer than ``k`` items tracked, it is added with
    count 1 and error 0; otherwise it *replaces* the tracked item with the
    minimum count ``m`` and gets count ``m + 1`` and error ``m``.

    The tracked items sit in a dict, beside a lazily validated min-heap of
    ``(count, tiebreak, item)`` entries, one pushed per offer: an entry is
    valid when its item is tracked with that count.
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

    * ``N(H)``  — the Space-Saving count minus its error (``count - error``
      is a guaranteed lower bound on the true frequency);
    * ``Nr(H)`` — read re-references observed *while H is tracked*;
    * ``D(H)``  — mean distance of exactly those re-references.

    Both side statistics reset when ``H``'s counter is recycled.  Untracked
    hint sets contribute nothing and have priority zero.
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
        if hint_key not in self._summary:
            return
        stats = self._side.setdefault(hint_key, HintSetStats())
        stats.read_rereferences += 1
        stats.distance_total += distance

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


class PriorityManager:
    """Smoothed caching priorities ``Pr(H)`` across request windows
    (Sections 3 and 3.2).

    The request stream is divided into non-overlapping windows of ``W``
    requests.  During window ``i`` the tracker collects statistics; at the
    window boundary the per-window priorities ``p̂r(H)_i = fhit(H) / D(H)``
    are blended into the running priorities (Equation 3)::

        Pr(H)_i = r * p̂r(H)_i + (1 - r) * Pr(H)_{i-1}

    Hint sets that have never been observed have priority zero.
    """

    def __init__(self, window_size: int, decay: float = 1.0, top_k: int | None = None):
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

    @property
    def window_size(self) -> int:
        return self._window_size

    @property
    def tracker(self) -> HintStatsTracker:
        return self._tracker

    @property
    def windows_completed(self) -> int:
        return self._windows_completed

    @property
    def requests_in_window(self) -> int:
        return self._requests_in_window

    def priority(self, hint_key: tuple) -> float:
        """Current caching priority ``Pr(H)``; zero for unknown hint sets."""
        return self._priorities.get(hint_key, 0.0)

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


class OutQueueEntry(NamedTuple):
    """Most-recent-request metadata remembered for one uncached page.

    The queue stores each entry as a plain ``(seq, hint_key)`` pair, which
    costs no Python-level constructor call on a hot path; :meth:`OutQueue.get`
    and :meth:`OutQueue.remove` hand it out under these field names.
    ``hint_key`` is the caller's tag for the request's hint set (CLIC stores
    its interned hint id).
    """

    seq: int
    hint_key: Hashable


class OutQueue:
    """A bounded, insertion-ordered map from page id to request metadata."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"outqueue capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[int, tuple[int, Hashable]] = OrderedDict()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def get(self, page: int) -> OutQueueEntry | None:
        """Return the remembered entry for *page*, or ``None``."""
        entry = self._entries.get(page)
        return None if entry is None else OutQueueEntry._make(entry)

    def put(self, page: int, seq: int, hint_key: Hashable) -> int | None:
        """Insert or refresh the entry for *page*.

        Refreshing an existing page moves it to the most-recently-inserted
        position.  Returns the page id evicted to make room, or ``None``.
        """
        if self._capacity == 0:
            return None
        evicted: int | None = None
        if page in self._entries:
            del self._entries[page]
        elif len(self._entries) >= self._capacity:
            evicted, _ = self._entries.popitem(last=False)
        self._entries[page] = (seq, hint_key)
        return evicted

    def remove(self, page: int) -> OutQueueEntry | None:
        """Remove and return the entry for *page* (``None`` if absent)."""
        entry = self._entries.pop(page, None)
        return None if entry is None else OutQueueEntry._make(entry)

    def pages(self) -> Iterator[int]:
        """Iterate over remembered pages, least-recently inserted first."""
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OutQueue(capacity={self._capacity}, size={len(self._entries)})"


class CLICPolicy(ScalarPolicy):
    """CLient-Informed Caching replacement policy, one request per call."""

    name = "CLIC"

    def __init__(self, capacity: int, config: CLICConfig | None = None):
        super().__init__(capacity)
        self._config = config or CLICConfig()
        # The paper charges CLIC for its tracking metadata by shrinking the
        # usable cache (~1% for the default parameters).
        self._effective_capacity = self._config.effective_capacity(capacity)
        self._priorities = PriorityManager(
            window_size=self._config.window_size,
            decay=self._config.decay,
            top_k=self._config.top_k,
        )
        self._outqueue = OutQueue(self._config.outqueue_capacity(capacity))
        # Interned hint-set keys: hint id -> key and key -> hint id.
        self._keys: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        # page -> (seq(p), hint id of H(p)).
        self._cached: dict[int, tuple[int, int]] = {}
        # Per-hint-id recency lists: insertion order equals seq order because
        # sequence numbers are monotonically increasing and every re-request
        # moves the page to the tail.
        self._lists: list[OrderedDict[int, None]] = []
        # Pr(H) per hint id, re-read from the priority manager whenever a
        # window closes (the only time priorities change).
        self._pr: list[float] = []
        # Lazily validated heap of (priority, head_seq, hint_id).
        self._heap: list[tuple[float, int, int]] = []

    # ------------------------------------------------------------ properties
    @property
    def config(self) -> CLICConfig:
        return self._config

    @property
    def effective_capacity(self) -> int:
        """Usable page slots after the metadata charge."""
        return self._effective_capacity

    @property
    def priority_manager(self) -> PriorityManager:
        """The windowed priority estimator (exposed for analysis and tests)."""
        return self._priorities

    @property
    def windows_completed(self) -> int:
        """How many priority windows have closed."""
        return self._priorities.windows_completed

    @property
    def outqueue(self) -> OutQueue:
        return self._outqueue

    def hint_priority(self, hints: HintSet) -> float:
        """Current ``Pr(H)`` for a hint set (zero if unknown)."""
        return self._priorities.priority(hints.key())

    # ------------------------------------------------------------- hint ids
    def _hint_id(self, hint_key: tuple) -> int:
        """The interned id of *hint_key*, assigning the next one if it is new."""
        hint_id = self._ids.get(hint_key)
        if hint_id is None:
            hint_id = self._ids[hint_key] = len(self._keys)
            self._keys.append(hint_key)
            self._lists.append(OrderedDict())
            self._pr.append(self._priorities.priority(hint_key))
        return hint_id

    # ------------------------------------------------------------ heap upkeep
    def _rebuild_heap(self) -> None:
        """Re-read the ``Pr`` table and rebuild the hint-set priority heap
        (called at window boundaries)."""
        priority = self._priorities.priority
        pr = self._pr = [priority(key) for key in self._keys]
        cached = self._cached
        self._heap = [
            (pr[hint_id], cached[next(iter(lst))][0], hint_id)
            for hint_id, lst in enumerate(self._lists)
            if lst
        ]
        heapq.heapify(self._heap)

    def _peek_victim(self) -> tuple[float, int, int] | None:
        """Return ``(priority m, seq(v), hint_id)`` of the eviction candidate.

        Pops stale heap entries (empty lists, outdated head sequence numbers
        or priorities) and replaces them by corrected ones until the top
        entry is valid.
        """
        pr = self._pr
        heap = self._heap
        lists = self._lists
        cached = self._cached
        while heap:
            top = heap[0]
            hint_id = top[2]
            lst = lists[hint_id]
            if not lst:
                heapq.heappop(heap)
                continue
            current = (pr[hint_id], cached[next(iter(lst))][0], hint_id)
            if current != top:
                heapq.heapreplace(heap, current)
                continue
            return top
        return None

    # -------------------------------------------------------------- mutation
    def _admit(self, page: int, seq: int, hint_id: int) -> None:
        lst = self._lists[hint_id]
        if not lst:
            heapq.heappush(self._heap, (self._pr[hint_id], seq, hint_id))
        self._cached[page] = (seq, hint_id)
        lst[page] = None
        self._outqueue.remove(page)

    def _refresh_cached(self, page: int, seq: int, hint_id: int) -> None:
        """Update seq(p)/H(p) of a cached page, moving it between hint-set lists."""
        old_id = self._cached[page][1]
        self._cached[page] = (seq, hint_id)
        if old_id == hint_id:
            self._lists[hint_id].move_to_end(page)
            return
        del self._lists[old_id][page]
        lst = self._lists[hint_id]
        if not lst:
            heapq.heappush(self._heap, (self._pr[hint_id], seq, hint_id))
        lst[page] = None

    def _evict(self, hint_id: int) -> int:
        """Evict the oldest page of *hint_id*'s list into the outqueue."""
        victim, _ = self._lists[hint_id].popitem(last=False)
        seq, victim_id = self._cached.pop(victim)
        self._outqueue.put(victim, seq, victim_id)
        return victim

    # --------------------------------------------------------------- access
    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        page = request.page
        hint_id = self._hint_id(request.hints.key())
        pr = self._pr
        meta = self._cached.get(page)
        hit = meta is not None

        # --- Hint analysis (Section 3.1): detect read re-references using the
        # metadata remembered for cached pages and for outqueue pages.
        prev = meta if hit else self._outqueue.get(page)
        if prev is not None and request.is_read and seq > prev[0]:
            prev_seq, prev_id = prev
            self._priorities.record_read_rereference(self._keys[prev_id], seq - prev_seq)

        # --- Cache management (Figure 4), using the priorities learned from
        # *previous* windows.
        if hit:
            self._refresh_cached(page, seq, hint_id)
            outcome = HIT
        elif len(self._cached) < self._effective_capacity:
            self._admit(page, seq, hint_id)
            outcome = MISS_ADMIT
        else:
            victim = self._peek_victim()
            if victim is not None and pr[hint_id] > victim[0]:
                evicted_page = self._evict(victim[2])
                self._admit(page, seq, hint_id)
                outcome = AccessOutcome(False, admitted=True, evicted=(evicted_page,))
            else:
                # Do not cache p; remember its most recent request so that a
                # quick read re-reference can still be detected.
                self._outqueue.put(page, seq, hint_id)
                outcome = MISS_BYPASS

        # --- Window accounting (Section 3.2).  The request itself is counted
        # in the window that is now in progress; when it closes, priorities
        # change and the hint-set heap must be rebuilt.
        window_closed = self._priorities.record_request(self._keys[hint_id])
        if window_closed:
            self._rebuild_heap()

        return outcome

    # ------------------------------------------------------------ inspection
    def contains(self, page: int) -> bool:
        return page in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    def cached_pages(self) -> Iterable[int]:
        return iter(self._cached)

    def current_priorities(self) -> dict[tuple, float]:
        """Current Pr(H) assignment (hint-set key -> priority)."""
        return dict(self._priorities.priorities())
