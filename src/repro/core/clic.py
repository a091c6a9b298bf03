"""The CLIC storage-server cache replacement policy (Sections 3-5).

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
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.cache.base import (
    HIT,
    MISS_ADMIT,
    MISS_BYPASS,
    AccessOutcome,
    AccessOutcomeBatch,
    CachePolicy,
    _mixed_batch,
)
from repro.core.config import CLICConfig
from repro.core.hints import HintSet
from repro.core.outqueue import OutQueue
from repro.core.priority import PriorityManager

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = ["CLICPolicy"]


class CLICPolicy(CachePolicy):
    """CLient-Informed Caching replacement policy."""

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
        # Pr(H) per hint id, copied from the priority manager's mapping; it
        # is current while that mapping is still the object _pr_source.
        self._pr: list[float] = []
        self._pr_source: Mapping[tuple, float] = self._priorities.mapping
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

    def _sync_priorities(self) -> list[float]:
        """The ``Pr`` table, re-read whenever the manager's priorities changed.

        The manager replaces its mapping object on every change — a window
        closing here, or an outside ``force_window_boundary()`` with no
        :meth:`_rebuild_heap` after it — so an identity check finds both.
        """
        mapping = self._priorities.mapping
        if mapping is not self._pr_source:
            self._pr_source = mapping
            get = mapping.get
            self._pr = [get(key, 0.0) for key in self._keys]
        return self._pr

    # ------------------------------------------------------------ heap upkeep
    def _rebuild_heap(self) -> None:
        """Rebuild the hint-set priority heap (called at window boundaries)."""
        pr = self._sync_priorities()
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
        pr = self._sync_priorities()
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
        pr = self._sync_priorities()
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

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        # Fused batch kernel.  The cache-management half of CLIC is
        # inherently sequential (each request sees the heap/outqueue state
        # the previous one left), so the loop below performs the mutations
        # of access() in the same order, with _admit, _refresh_cached,
        # _evict, _peek_victim and OutQueue.put/remove inlined — bit-identical
        # by construction, pinned by tests/cache/test_batch_parity.py.  What
        # the kernel batches away:
        #
        # * request/outcome object materialisation (columns are consumed as
        #   plain lists, outcomes assembled as flag arrays);
        # * hint-key interning — once per hint-table entry instead of once
        #   per request;
        # * tracker updates — priorities only change at window boundaries,
        #   so within a window segment the tracker is invisible to cache
        #   management; its updates are deferred and applied per segment as
        #   per-key counts (PriorityManager.record_segment) whenever the
        #   tracker can absorb them exactly.  A Space-Saving tracker whose
        #   counters would recycle mid-segment falls back to ordered
        #   per-request updates inside the same loop, preserving tie-breaks.
        priorities = self._priorities
        tracker = priorities.tracker
        intern = self._hint_id
        # Chunk hint-table index -> hint id, interned in table order.
        id_of = [intern(hints.key()) for hints in chunk.hint_sets]
        hint_ids = np.array(id_of, np.int64)[chunk.hint_id].tolist()
        pages = chunk.page.tolist()
        writes = chunk.write.tolist()
        seqs = chunk.seq_list()

        keys = self._keys
        lists = self._lists
        cached = self._cached
        cached_get = cached.get
        cached_pop = cached.pop
        oq_entries = self._outqueue.entries
        oq_get = oq_entries.get
        oq_pop = oq_entries.pop
        oq_popitem = oq_entries.popitem
        oq_capacity = self._outqueue.capacity
        effective_capacity = self._effective_capacity
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        accepts = tracker.accepts_rereference
        record_reref = priorities.record_read_rereference
        record_request = priorities.record_request

        n = len(chunk)
        hit_flags = bytearray(n)
        admit_flags = bytearray(n)
        bypass_flags = bytearray(n)
        evict_pos: list[int] = []
        evicted: list[int] = []

        start = 0
        while start < n:
            # One segment per window: the boundary falls between requests
            # exactly where the scalar loop would close the window.
            stop = min(n, start + priorities.window_room())
            defer = tracker.can_defer({keys[h] for h in set(hint_ids[start:stop])})
            # Per-id request counts; the pop-and-reinsert update keeps the
            # dict in last-occurrence order, which record_segment requires.
            counts: dict[int, int] = {}
            rerefs: list[tuple[int, int]] = []
            # Priorities are frozen until the window closes (= the segment
            # boundary); _rebuild_heap replaces the table and the heap there.
            pr = self._sync_priorities()
            heap = self._heap
            window_closed = False
            for i, page, seq, hint_id, write in zip(
                range(start, stop),
                pages[start:stop],
                seqs[start:stop],
                hint_ids[start:stop],
                writes[start:stop],
            ):
                meta = cached_get(page)

                # Hint analysis (Section 3.1), as in access().  In deferred
                # mode the credit is gated now — tracked at segment start or
                # requested earlier in this segment — and recorded at the
                # segment boundary; membership only grows in a no-recycle
                # segment, so the late apply is exact.
                if not write:
                    prev = meta if meta is not None else oq_get(page)
                    if prev is not None and seq > prev[0]:
                        prev_seq, prev_id = prev
                        if not defer:
                            record_reref(keys[prev_id], seq - prev_seq)
                        elif prev_id in counts or accepts(keys[prev_id]):
                            rerefs.append((prev_id, seq - prev_seq))

                # Cache management (Figure 4): access()'s mutations in
                # access()'s order.
                if meta is not None:
                    cached[page] = (seq, hint_id)
                    old_id = meta[1]
                    if old_id == hint_id:
                        lists[hint_id].move_to_end(page)
                    else:
                        del lists[old_id][page]
                        lst = lists[hint_id]
                        if not lst:
                            heappush(heap, (pr[hint_id], seq, hint_id))
                        lst[page] = None
                    hit_flags[i] = 1
                else:
                    admit = len(cached) < effective_capacity
                    priority = pr[hint_id]
                    # Pr(H) == 0 can never beat the victim's priority m
                    # (priorities are nonnegative, Equation 2), so the outcome
                    # is a bypass without consulting the heap.  Deferring the
                    # heap's lazy cleanup is invisible: the victim it
                    # eventually returns is determined by the minimum
                    # (priority, head seq) over *valid* entries, which the
                    # skipped cleanup does not change.
                    if not admit and priority:
                        while heap:
                            top = heap[0]
                            victim_id = top[2]
                            victim_list = lists[victim_id]
                            if not victim_list:
                                heappop(heap)
                                continue
                            victim = next(iter(victim_list))
                            current = (pr[victim_id], cached[victim][0], victim_id)
                            if current != top:
                                heapreplace(heap, current)
                                continue
                            if priority > top[0]:
                                # Evict v into the outqueue: its metadata pair
                                # becomes the outqueue entry as it is.
                                del victim_list[victim]
                                victim_meta = cached_pop(victim)
                                if oq_capacity:
                                    if victim in oq_entries:
                                        del oq_entries[victim]
                                    elif len(oq_entries) >= oq_capacity:
                                        oq_popitem(False)
                                    oq_entries[victim] = victim_meta
                                evicted.append(victim)
                                evict_pos.append(i)
                                admit = True
                            break
                    if admit:
                        cached[page] = (seq, hint_id)
                        lst = lists[hint_id]
                        if not lst:
                            heappush(heap, (pr[hint_id], seq, hint_id))
                        lst[page] = None
                        oq_pop(page, None)
                        admit_flags[i] = 1
                    else:
                        # Do not cache p; remember it in the outqueue.
                        if oq_capacity:
                            if page in oq_entries:
                                del oq_entries[page]
                            elif len(oq_entries) >= oq_capacity:
                                oq_popitem(False)
                            oq_entries[page] = (seq, hint_id)
                        bypass_flags[i] = 1

                # Window accounting (Section 3.2).
                if defer:
                    counts[hint_id] = counts.pop(hint_id, 0) + 1
                else:
                    window_closed = record_request(keys[hint_id])
            if defer:
                window_closed = priorities.record_segment(
                    [(keys[h], count) for h, count in counts.items()],
                    [(keys[h], distance) for h, distance in rerefs],
                    stop - start,
                )
            if window_closed:
                self._rebuild_heap()
            start = stop

        return _mixed_batch(hit_flags, admit_flags, bypass_flags, evict_pos, evicted)

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
