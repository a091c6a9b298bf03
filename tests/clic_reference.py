"""The scalar CLIC policy and its outqueue: the reference the C kernel is held to.

This is the pure-Python CLIC that ``repro.core.clic`` replaced with a C
kernel, one request at a time, unchanged in behaviour.  The parity suite
(``tests/cache/test_batch_parity.py``), the engine oracle
(``tests/simulation/test_engine_oracle.py``) and the invariant suite's
kernel-less case (``tests/test_registry_invariants.py``) replay it beside
the kernel and require identical outcomes and cached pages;
``tests/policy_reference.py`` registers it with the other policies'
references.

CLIC assigns every hint set ``H`` a caching priority ``Pr(H)`` learned
on-line from the read re-reference behaviour of requests that carried ``H``
(:mod:`repro.core.priority`).  The replacement policy (paper Figure 4) then
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
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Hashable, Iterable, Iterator, NamedTuple

from repro.cache.base import (
    HIT,
    MISS_ADMIT,
    MISS_BYPASS,
    AccessOutcome,
    CachePolicy,
)
from repro.core.config import CLICConfig
from repro.core.hints import HintSet
from repro.core.priority import PriorityManager
from repro.simulation.request import IORequest

__all__ = [
    "CLICPolicy",
    "OutQueue",
    "OutQueueEntry",
]


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


class CLICPolicy(CachePolicy):
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
        get = self._priorities.mapping.get
        pr = self._pr = [get(key, 0.0) for key in self._keys]
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
