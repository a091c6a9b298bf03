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
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

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
from repro.core.grouping import project_hint_key
from repro.core.hints import HintSet
from repro.core.outqueue import OutQueue, OutQueueEntry
from repro.core.priority import PriorityManager
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = ["CLICPolicy"]


@dataclass(slots=True)
class _PageMeta:
    """Per-cached-page metadata: seq(p) and H(p) from the most recent request."""

    seq: int
    hint_key: tuple


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
        self._cached: dict[int, _PageMeta] = {}
        # Per-hint-set recency lists: insertion order equals seq order because
        # sequence numbers are monotonically increasing and every re-request
        # moves the page to the tail.
        self._lists: dict[tuple, OrderedDict[int, None]] = {}
        # Lazily validated heap of (priority, head_seq, tiebreak, hint_key).
        self._heap: list[tuple[float, int, int, tuple]] = []
        self._tiebreak = itertools.count()

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
        return self._priorities.priority(self._hint_key(hints))

    def _hint_key(self, hints: HintSet) -> tuple:
        """The statistics key for a hint set (projected if grouping is enabled)."""
        return project_hint_key(hints, self._config.hint_projection)

    # ------------------------------------------------------------ list upkeep
    def _list_for(self, hint_key: tuple) -> OrderedDict[int, None]:
        lst = self._lists.get(hint_key)
        if lst is None:
            lst = OrderedDict()
            self._lists[hint_key] = lst
        return lst

    def _push_heap_entry(self, hint_key: tuple) -> None:
        lst = self._lists.get(hint_key)
        if not lst:
            return
        head_page = next(iter(lst))
        head_seq = self._cached[head_page].seq
        heapq.heappush(
            self._heap,
            (self._priorities.priority(hint_key), head_seq, next(self._tiebreak), hint_key),
        )

    def _rebuild_heap(self) -> None:
        """Rebuild the hint-set priority heap (called at window boundaries)."""
        self._heap = []
        self._tiebreak = itertools.count()
        for hint_key, lst in self._lists.items():
            if lst:
                self._push_heap_entry(hint_key)

    def _peek_victim(self) -> tuple[float, int, tuple] | None:
        """Return ``(priority m, seq(v), hint_key)`` of the eviction candidate.

        Pops stale heap entries (empty lists, outdated head sequence numbers)
        and re-pushes corrected ones until the top entry is valid.
        """
        while self._heap:
            priority, head_seq, _tb, hint_key = self._heap[0]
            lst = self._lists.get(hint_key)
            if not lst:
                heapq.heappop(self._heap)
                continue
            head_page = next(iter(lst))
            current_seq = self._cached[head_page].seq
            current_priority = self._priorities.priority(hint_key)
            if head_seq != current_seq or priority != current_priority:
                heapq.heappop(self._heap)
                self._push_heap_entry(hint_key)
                continue
            return priority, head_seq, hint_key
        return None

    # -------------------------------------------------------------- mutation
    def _admit(self, page: int, seq: int, hint_key: tuple) -> None:
        lst = self._list_for(hint_key)
        was_empty = not lst
        self._cached[page] = _PageMeta(seq=seq, hint_key=hint_key)
        lst[page] = None
        if was_empty:
            self._push_heap_entry(hint_key)
        self._outqueue.remove(page)

    def _refresh_cached(self, page: int, seq: int, hint_key: tuple) -> None:
        """Update seq(p)/H(p) of a cached page, moving it between hint-set lists."""
        meta = self._cached[page]
        old_key = meta.hint_key
        meta.seq = seq
        if old_key == hint_key:
            self._lists[old_key].move_to_end(page)
            return
        old_list = self._lists[old_key]
        del old_list[page]
        meta.hint_key = hint_key
        new_list = self._list_for(hint_key)
        was_empty = not new_list
        new_list[page] = None
        if was_empty:
            self._push_heap_entry(hint_key)

    def _evict(self, hint_key: tuple) -> int:
        """Evict the oldest page of *hint_key*'s list into the outqueue."""
        lst = self._lists[hint_key]
        victim, _ = lst.popitem(last=False)
        meta = self._cached.pop(victim)
        self._outqueue.put(victim, meta.seq, meta.hint_key)
        return victim

    # --------------------------------------------------------------- access
    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        page = request.page
        hint_key = self._hint_key(request.hints)
        hit = page in self._cached

        # --- Hint analysis (Section 3.1): detect read re-references using the
        # metadata remembered for cached pages and for outqueue pages.
        if hit:
            prev_meta = self._cached[page]
            prev_seq, prev_key = prev_meta.seq, prev_meta.hint_key
        else:
            oq_entry = self._outqueue.get(page)
            if oq_entry is not None:
                prev_seq, prev_key = oq_entry.seq, oq_entry.hint_key
            else:
                prev_seq, prev_key = None, None
        if prev_seq is not None and request.is_read and seq > prev_seq:
            self._priorities.record_read_rereference(prev_key, seq - prev_seq)

        # --- Cache management (Figure 4), using the priorities learned from
        # *previous* windows.
        if hit:
            self._refresh_cached(page, seq, hint_key)
            outcome = HIT
        elif len(self._cached) < self._effective_capacity:
            self._admit(page, seq, hint_key)
            outcome = MISS_ADMIT
        else:
            victim = self._peek_victim()
            if victim is not None and self._priorities.priority(hint_key) > victim[0]:
                evicted_page = self._evict(victim[2])
                self._admit(page, seq, hint_key)
                outcome = AccessOutcome(False, admitted=True, evicted=(evicted_page,))
            else:
                # Do not cache p; remember its most recent request so that a
                # quick read re-reference can still be detected.
                self._outqueue.put(page, seq, hint_key)
                outcome = MISS_BYPASS

        # --- Window accounting (Section 3.2).  The request itself is counted
        # in the window that is now in progress; when it closes, priorities
        # change and the hint-set heap must be rebuilt.
        window_closed = self._priorities.record_request(hint_key)
        if window_closed:
            self._rebuild_heap()

        return outcome

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        # Fused batch kernel.  The cache-management half of CLIC is
        # inherently sequential (each request sees the heap/outqueue state
        # the previous one left), so the loop below performs the exact
        # mutation-helper calls of access() in the same order — bit-identical
        # by construction, pinned by tests/cache/test_batch_parity.py.  What
        # the kernel batches away:
        #
        # * request/outcome object materialisation (columns are consumed as
        #   plain lists, outcomes assembled as flag arrays);
        # * hint-key projection — once per hint-dictionary entry instead of
        #   once per request;
        # * tracker updates — priorities only change at window boundaries,
        #   so within a window segment the tracker is invisible to cache
        #   management; its updates are deferred and applied per segment as
        #   per-key counts (PriorityManager.record_segment) whenever the
        #   tracker can absorb them exactly.  A Space-Saving tracker whose
        #   counters would recycle mid-segment falls back to ordered
        #   per-request updates inside the same loop, preserving tie-breaks.
        priorities = self._priorities
        tracker = priorities.tracker
        projection = self._config.hint_projection
        key_of_id = [
            project_hint_key(hints, projection) for hints in chunk.hint_sets
        ]
        pages = chunk.page.tolist()
        writes = chunk.write.tolist()
        hint_ids = chunk.hint_id.tolist()
        seqs = chunk.seq_list()

        cached = self._cached
        cached_get = cached.get
        outqueue = self._outqueue
        oq_entries = outqueue.entries
        oq_capacity = outqueue.capacity
        oq_get = oq_entries.get
        effective_capacity = self._effective_capacity
        refresh = self._refresh_cached
        admit = self._admit
        peek_victim = self._peek_victim
        evict_list = self._evict

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
            segment_keys = {key_of_id[h] for h in set(hint_ids[start:stop])}
            defer = tracker.can_defer(segment_keys)
            # Per-key request counts; the pop-and-reinsert update keeps the
            # dict in last-occurrence order, which record_segment requires.
            counts: dict[tuple, int] = {}
            rerefs: list[tuple[tuple, int]] = []
            accepts = tracker.accepts_rereference
            record_reref = priorities.record_read_rereference
            record_request = priorities.record_request
            # Priorities are frozen until the window closes (= the segment
            # boundary), so Pr(H) lookups bind the manager's live mapping;
            # the mapping object is replaced at the boundary, hence the
            # per-segment rebind.
            priority_get = priorities.mapping.get
            window_closed = False
            for i, page, seq, hint_id, write in zip(
                range(start, stop),
                pages[start:stop],
                seqs[start:stop],
                hint_ids[start:stop],
                writes[start:stop],
            ):
                hint_key = key_of_id[hint_id]

                # Hint analysis (Section 3.1), as in access().  In deferred
                # mode the credit is gated now — tracked at segment start or
                # requested earlier in this segment — and recorded at the
                # segment boundary; membership only grows in a no-recycle
                # segment, so the late apply is exact.
                meta = cached_get(page)
                if meta is not None:
                    prev_seq, prev_key = meta.seq, meta.hint_key
                else:
                    oq_entry = oq_get(page)
                    if oq_entry is not None:
                        prev_seq, prev_key = oq_entry.seq, oq_entry.hint_key
                    else:
                        prev_seq = prev_key = None
                if prev_seq is not None and not write and seq > prev_seq:
                    if defer:
                        if accepts(prev_key) or prev_key in counts:
                            rerefs.append((prev_key, seq - prev_seq))
                    else:
                        record_reref(prev_key, seq - prev_seq)

                # Cache management (Figure 4): the same helper calls in the
                # same order as access().
                if meta is not None:
                    refresh(page, seq, hint_key)
                    hit_flags[i] = 1
                elif len(cached) < effective_capacity:
                    admit(page, seq, hint_key)
                    admit_flags[i] = 1
                else:
                    pr = priority_get(hint_key, 0.0)
                    if pr == 0.0:
                        # Pr(H) == 0 can never beat the victim's priority m
                        # (priorities are nonnegative, Equation 2), so the
                        # outcome is a bypass without consulting the heap.
                        # Deferring _peek_victim's lazy cleanup is invisible:
                        # the victim it eventually returns is determined by
                        # the minimum (priority, head seq) over *valid*
                        # entries, which the skipped cleanup does not change.
                        bypass = True
                    else:
                        victim = peek_victim()
                        bypass = victim is None or pr <= victim[0]
                    if bypass:
                        # Inline OutQueue.put — the hot call on mostly-miss
                        # streams; must mirror its refresh/overflow semantics.
                        if oq_capacity:
                            if page in oq_entries:
                                del oq_entries[page]
                            elif len(oq_entries) >= oq_capacity:
                                oq_entries.popitem(last=False)
                            oq_entries[page] = OutQueueEntry(seq, hint_key)
                        bypass_flags[i] = 1
                    else:
                        evicted.append(evict_list(victim[2]))
                        evict_pos.append(i)
                        admit(page, seq, hint_key)
                        admit_flags[i] = 1

                # Window accounting (Section 3.2).
                if defer:
                    counts[hint_key] = counts.pop(hint_key, 0) + 1
                else:
                    window_closed = record_request(hint_key)
            if defer:
                window_closed = priorities.record_segment(
                    list(counts.items()), rerefs, stop - start
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

    def reset(self) -> None:
        super().reset()
        self._priorities.reset()
        self._outqueue.clear()
        self._cached.clear()
        self._lists.clear()
        self._heap.clear()
        self._tiebreak = itertools.count()
