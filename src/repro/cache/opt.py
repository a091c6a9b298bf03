"""OPT: Belady's MIN algorithm, specialised for read hit ratio.

The CLIC paper uses the off-line optimal policy as an upper bound: "It
replaces the cached page that will not be *read* for the longest time."
Because the paper's metric is the read hit ratio, only future *read*
references matter; a page that will only be written again (or never touched
again) is worthless in the cache.

This implementation additionally applies the bypass optimisation: on a miss,
if the requested page's next read lies further in the future than every
cached page's next read (in particular, if it will never be read again), the
page is not admitted at all.  This is the true optimum for the read-hit
metric and can only raise the upper bound.

OPT is an off-line policy: the simulator must call :meth:`prepare` with the
complete request stream before feeding requests.  The future knowledge is a
:class:`ReadIndex` — one next-read column over the stream — which the scalar
:meth:`~OPTPolicy.access` and the fused :meth:`~OPTPolicy.batch_access`
both read.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

import numpy as _np

from repro.cache.base import (
    HIT,
    MISS_ADMIT,
    MISS_BYPASS,
    AccessOutcome,
    AccessOutcomeBatch,
    CachePolicy,
    _mixed_batch,
)

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = ["NEVER", "OPTPolicy", "ReadIndex"]

#: Next-read "time" of a request whose page is never read again (int64 max).
NEVER = 2**63 - 1


def _next_reads(page: Any, write: Any, pos: Any) -> Any:
    """For each request, the position of the next read of its page strictly
    after it, or :data:`NEVER`.

    ``page``/``write`` are the stream's columns and ``pos`` its (ascending)
    positions.  A stable argsort groups the requests by page while keeping
    stream order inside each group; in that order, a request's next read is
    the first read ranked after it, found with one ``searchsorted`` over the
    reads' ranks, provided it still belongs to the same page.
    """
    n = len(page)
    out = _np.full(n, NEVER, _np.int64)
    order = _np.argsort(page, kind="stable")
    reads = _np.flatnonzero(~write[order])
    follow = _np.searchsorted(reads, _np.arange(n), side="right")
    ranked = _np.flatnonzero(follow < len(reads))
    after = reads[follow[ranked]]
    grouped = page[order]
    same = grouped[after] == grouped[ranked]
    out[order[ranked[same]]] = pos[order[after[same]]]
    return out


class ReadIndex(NamedTuple):
    """The future-read index of one request stream, as one int64 column.

    ``next_read[i]`` is the sequence number of the first read of request
    *i*'s page strictly after request *i* (:data:`NEVER` if there is none).
    Request *i* is sequence number *i*, and lookups go by sequence number,
    so a gathered sub-chunk (one shard's requests, carrying non-contiguous
    global seqs) indexes the column directly.  The index depends only on
    the stream, never on the cache capacity, so one index serves every OPT
    instance replaying that stream.
    """

    next_read: Any

    @classmethod
    def build(cls, requests: Any, router: Any = None) -> "ReadIndex":
        """Index a request stream, numbering its requests from 0.

        Columnar sources (anything with ``iter_columnar()``) are indexed
        from their page/write columns without building a request object;
        any other request source or iterable is read request by request.
        With a shard *router* (``route``/``route_batch``, routing from its
        current state), a read only counts as the next read of requests on
        its own shard: one column holding every shard's own index.
        """
        pages: list[Any] = []
        writes: list[Any] = []
        shards: list[Any] = []
        if hasattr(requests, "iter_columnar"):
            for chunk in requests.iter_columnar():
                pages.append(chunk.page)
                writes.append(chunk.write)
                if router is not None:
                    shards.append(router.route_batch(chunk))
        else:
            if hasattr(requests, "iter_requests"):
                requests = requests.iter_requests()
            page_list: list[int] = []
            write_list: list[bool] = []
            shard_list: list[int] = []
            for request in requests:
                page_list.append(request.page)
                write_list.append(not request.is_read)
                if router is not None:
                    shard_list.append(router.route(request))
            pages.append(_np.array(page_list, _np.int64))
            writes.append(_np.array(write_list, _np.bool_))
            shards.append(_np.array(shard_list, _np.int64))
        if not pages:
            return cls(_np.zeros(0, _np.int64))
        page = _np.concatenate(pages)
        write = _np.concatenate(writes)
        pos = _np.arange(len(page), dtype=_np.int64)
        if router is None:
            return cls(_next_reads(page, write, pos))
        shard = _np.concatenate(shards)
        column = _np.empty(len(page), _np.int64)
        for s in _np.unique(shard).tolist():
            idx = _np.flatnonzero(shard == s)
            column[idx] = _next_reads(page[idx], write[idx], pos[idx])
        return cls(column)


class OPTPolicy(CachePolicy):
    """Belady's MIN with future knowledge of read references."""

    name = "OPT"
    offline = True
    shares_read_index = True

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._index: ReadIndex | None = None
        self._cached: dict[int, int] = {}        # page -> next read seq
        self._heap: list[tuple[int, int]] = []   # (-next_read, page), lazy deletion

    # --------------------------------------------------------------- set-up
    @staticmethod
    def build_read_index(requests: Any) -> ReadIndex:
        """Build the next-read index of a request stream.

        *requests* is any request source: a columnar source is indexed from
        its page/write columns, anything else request by request.  Positions
        are numbered from 0, matching the sequence numbers the simulator
        assigns during replay.  The index depends only on the
        stream (not on the cache capacity), so one index can be shared by
        many :class:`OPTPolicy` instances via :meth:`adopt_read_index`.
        """
        return ReadIndex.build(requests)

    def prepare(self, requests: Any) -> None:
        """Index the future reads of the stream this policy will replay."""
        self.adopt_read_index(self.build_read_index(requests))

    def adopt_read_index(self, index: ReadIndex) -> None:
        """Adopt a pre-built future-read index (treated as read-only).

        The multi-policy engine uses this to build the index once per request
        stream and share it across every OPT instance in a sweep.
        """
        self._index = index

    def _prepared_index(self) -> ReadIndex:
        if self._index is None:
            raise RuntimeError("OPTPolicy.access called before prepare()")
        return self._index

    # --------------------------------------------------------------- access
    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        next_read = self._prepared_index().next_read.item(seq)
        page = request.page
        cached = self._cached
        if page in cached:
            if next_read == NEVER:
                # The page will never be read again: free the slot
                # immediately.  This *hit-path drop* counts as an eviction —
                # the page leaves the cache — so ``evictions`` can exceed
                # the number of capacity-pressure replacements, and
                # ``admissions - evictions == len(cache)`` still holds.
                del cached[page]
                return AccessOutcome(True, evicted=(page,))
            cached[page] = next_read
            self._push(page, next_read)
            return HIT

        if next_read == NEVER:
            # Never read again: pointless to cache (bypass).
            return MISS_BYPASS

        if len(cached) >= self.capacity:
            victim = self._pop_farthest()
            if victim is None or cached[victim] <= next_read:
                # Every cached page is read sooner than the new page: bypass.
                if victim is not None:
                    self._push(victim, cached[victim])
                return MISS_BYPASS
            del cached[victim]
            cached[page] = next_read
            self._push(page, next_read)
            return AccessOutcome(False, admitted=True, evicted=(victim,))

        cached[page] = next_read
        self._push(page, next_read)
        return MISS_ADMIT

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        # Fused batch kernel: the decisions of access(), request for request,
        # over the page column and the chunk's slice of the next-read
        # column (gathered by seq, so per-shard sub-chunks work unchanged).
        # Heap pushes share access()'s compaction rule.
        next_reads = self._prepared_index().next_read[chunk.seq].tolist()
        pages = chunk.page.tolist()

        cached = self._cached
        heap = self._heap
        heappush = heapq.heappush
        pop_farthest = self._pop_farthest
        compact = self._compact
        capacity = self.capacity
        limit = 2 * capacity
        never = NEVER

        n = len(pages)
        hit_flags = bytearray(n)
        admit_flags = bytearray(n)
        bypass_flags = bytearray(n)
        evict_pos: list[int] = []
        evicted: list[int] = []

        for i, page, next_read in zip(range(n), pages, next_reads):
            if page in cached:
                hit_flags[i] = 1
                if next_read == never:
                    del cached[page]
                    evict_pos.append(i)
                    evicted.append(page)
                    continue
            elif next_read == never:
                bypass_flags[i] = 1
                continue
            elif len(cached) >= capacity:
                victim = pop_farthest()
                if victim is None or cached[victim] <= next_read:
                    # Bypass, putting the victim's entry back as access()
                    # does (a pop then a push cannot grow the heap).
                    bypass_flags[i] = 1
                    if victim is not None:
                        heappush(heap, (-cached[victim], victim))
                    continue
                del cached[victim]
                evict_pos.append(i)
                evicted.append(victim)
                admit_flags[i] = 1
            else:
                admit_flags[i] = 1
            cached[page] = next_read
            heappush(heap, (-next_read, page))
            if len(heap) > limit:
                compact()

        return _mixed_batch(hit_flags, admit_flags, bypass_flags, evict_pos, evicted)

    # ----------------------------------------------------------------- heap
    def _push(self, page: int, next_read: int) -> None:
        """Push *page*'s current heap entry, compacting an oversized heap."""
        heap = self._heap
        heapq.heappush(heap, (-next_read, page))
        if len(heap) > 2 * self.capacity:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from the live entries only (in place).

        Hits push a fresh entry without removing the old one, and stale
        entries otherwise leave only when they surface in
        :meth:`_pop_farthest`, so the heap would grow with the stream.
        Cached pages have distinct next reads, so the keys
        ``(-next_read, page)`` of live entries are unique and the pop order
        — hence every victim — is unchanged by dropping the rest.
        """
        heap = self._heap
        heap[:] = [(-next_read, page) for page, next_read in self._cached.items()]
        heapq.heapify(heap)

    def _pop_farthest(self) -> int | None:
        """Pop and return the cached page with the farthest next read.

        The page's (current, non-stale) heap entry is removed along the way,
        so a caller that decides *not* to evict the returned page must push
        the entry back (see the bypass branch in :meth:`access`); the page
        itself stays in ``_cached`` either way.  Stale entries skipped
        during the scan are discarded for good.  Returns ``None`` when no
        cached page has a live heap entry.
        """
        while self._heap:
            neg_time, page = self._heap[0]
            current = self._cached.get(page)
            if current is None or current != -neg_time:
                heapq.heappop(self._heap)  # stale entry
                continue
            heapq.heappop(self._heap)
            return page
        return None

    # ------------------------------------------------------------ inspection
    def contains(self, page: int) -> bool:
        return page in self._cached

    def __len__(self) -> int:
        return len(self._cached)

    def cached_pages(self) -> Iterable[int]:
        return iter(self._cached)
