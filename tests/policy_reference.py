"""The scalar LRU, ARC, TQ and OPT policies and the sharded cluster: the
references their C kernels are held to.

These are the pure-Python policies that ``repro.cache`` replaced with C
kernels (``repro/core/_{lru,arc,tq,opt}_kernel.c``), one request at a time,
unchanged in behaviour; ``tests/clic_reference.py`` holds CLIC's.  Each is a
:class:`~tests.observer_reference.ScalarPolicy`: it defines ``access``,
and its ``batch_access`` is the scalar lift over it.
:class:`ReferenceCluster` is the per-request definition of
:class:`~repro.simulation.cluster.ShardedCache` over these references.  The
parity suite (``tests/cache/test_batch_parity.py``), the engine oracle
(``tests/simulation/test_engine_oracle.py``) and the invariant suite's
kernel-less cases (``tests/test_registry_invariants.py``) replay them beside
the kernels and require identical outcomes and cached pages; tests that
read a policy's internals (``_t1``, ``_high``, ``_heap``) read them here.

:func:`registered` puts all six references in the policy registry under
``<NAME>-REFERENCE``, and :func:`reference_case` maps a registry case onto
the one that replays the references.
"""

from __future__ import annotations

import contextlib
import heapq
from collections import OrderedDict
from typing import Any, Iterable, Iterator, Mapping

import pytest

from repro.cache import registry
from repro.cache.opt import NEVER, ReadIndex
from repro.cache.tq import (
    DEFAULT_RECOVERY_VALUES,
    DEFAULT_REPLACEMENT_VALUES,
    DEFAULT_REQUEST_TYPE_HINT,
)
from repro.simulation.cluster import ShardRouter, make_router
from repro.simulation.multiclient import partition_capacity
from repro.simulation.request import IORequest

from tests import clic_reference
from tests.observer_reference import (
    HIT,
    MISS_ADMIT,
    MISS_BYPASS,
    AccessOutcome,
    ScalarPolicy,
    reference_route,
)

__all__ = [
    "ARCPolicy",
    "LRUPolicy",
    "OPTPolicy",
    "REFERENCES",
    "ReferenceCluster",
    "TQPolicy",
    "reference_case",
    "registered",
]


class LRUPolicy(ScalarPolicy):
    """Classic LRU over all requests (reads and writes)."""

    name = "LRU"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        # OrderedDict ordered from least- to most-recently used.
        self._pages: OrderedDict[int, None] = OrderedDict()

    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        page = request.page
        pages = self._pages
        if page in pages:
            pages.move_to_end(page)
            return HIT
        if len(pages) >= self.capacity:
            victim, _ = pages.popitem(last=False)
            pages[page] = None
            return AccessOutcome(False, admitted=True, evicted=(victim,))
        pages[page] = None
        return MISS_ADMIT

    def contains(self, page: int) -> bool:
        return page in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def cached_pages(self) -> Iterable[int]:
        return iter(self._pages)

class ARCPolicy(ScalarPolicy):
    """Adaptive Replacement Cache."""

    name = "ARC"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._p = 0.0  # target size for T1 (adaptation parameter)
        # All four lists are ordered LRU -> MRU.
        self._t1: OrderedDict[int, None] = OrderedDict()
        self._t2: OrderedDict[int, None] = OrderedDict()
        self._b1: OrderedDict[int, None] = OrderedDict()
        self._b2: OrderedDict[int, None] = OrderedDict()

    # ----------------------------------------------------------- internals
    def _replace(self, in_b2: bool) -> int:
        """REPLACE(x, p) from the ARC paper: evict from T1 or T2 to a ghost list."""
        if self._t1 and (
            len(self._t1) > self._p
            or (in_b2 and len(self._t1) == int(self._p))
        ):
            victim, _ = self._t1.popitem(last=False)
            self._b1[victim] = None
        else:
            victim, _ = self._t2.popitem(last=False)
            self._b2[victim] = None
        return victim

    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        page = request.page
        c = self.capacity

        # Case I: hit in T1 or T2 -> move to MRU of T2.
        if page in self._t1 or page in self._t2:
            if page in self._t1:
                del self._t1[page]
            else:
                del self._t2[page]
            self._t2[page] = None
            return HIT

        # Case II: ghost hit in B1 -> favour recency (grow p).
        if page in self._b1:
            delta = 1.0 if len(self._b1) >= len(self._b2) else len(self._b2) / len(self._b1)
            self._p = min(self._p + delta, float(c))
            victim = self._replace(in_b2=False)
            del self._b1[page]
            self._t2[page] = None
            return AccessOutcome(False, admitted=True, evicted=(victim,))

        # Case III: ghost hit in B2 -> favour frequency (shrink p).
        if page in self._b2:
            delta = 1.0 if len(self._b2) >= len(self._b1) else len(self._b1) / len(self._b2)
            self._p = max(self._p - delta, 0.0)
            victim = self._replace(in_b2=True)
            del self._b2[page]
            self._t2[page] = None
            return AccessOutcome(False, admitted=True, evicted=(victim,))

        # Case IV: complete miss.
        evicted: tuple[int, ...] = ()
        l1 = len(self._t1) + len(self._b1)
        l2 = len(self._t2) + len(self._b2)
        if l1 == c:
            if len(self._t1) < c:
                self._b1.popitem(last=False)
                evicted = (self._replace(in_b2=False),)
            else:
                # B1 is empty; evict the LRU page of T1 directly.
                victim, _ = self._t1.popitem(last=False)
                evicted = (victim,)
        elif l1 < c and l1 + l2 >= c:
            if l1 + l2 == 2 * c:
                self._b2.popitem(last=False)
            evicted = (self._replace(in_b2=False),)
        self._t1[page] = None
        return AccessOutcome(False, admitted=True, evicted=evicted)

    # ------------------------------------------------------------ inspection
    def contains(self, page: int) -> bool:
        return page in self._t1 or page in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def cached_pages(self) -> Iterable[int]:
        yield from self._t1
        yield from self._t2

    @property
    def target_t1_size(self) -> float:
        """Current value of the adaptation parameter ``p`` (for tests/inspection)."""
        return self._p

class TQPolicy(ScalarPolicy):
    """Two-queue, write-hint-aware replacement."""

    name = "TQ"

    def __init__(
        self,
        capacity: int,
        request_type_hint: str = DEFAULT_REQUEST_TYPE_HINT,
        replacement_values: frozenset[str] | set[str] = DEFAULT_REPLACEMENT_VALUES,
        recovery_values: frozenset[str] | set[str] = DEFAULT_RECOVERY_VALUES,
        cache_recovery_writes: bool = False,
        write_queue_lifetime: int | None = None,
    ):
        super().__init__(capacity)
        self._hint_name = request_type_hint
        self._replacement_values = frozenset(replacement_values)
        self._recovery_values = frozenset(recovery_values)
        self._cache_recovery_writes = cache_recovery_writes
        #: Requests a replacement-written page may wait for its read-back
        #: before losing its protected status.
        self._lifetime = write_queue_lifetime if write_queue_lifetime is not None else 4 * capacity
        # Both queues are ordered LRU -> MRU; the high queue remembers when
        # each page was enqueued so stale entries can be demoted.
        self._high: OrderedDict[int, int] = OrderedDict()   # page -> enqueue seq
        self._low: OrderedDict[int, None] = OrderedDict()   # everything else

    # ----------------------------------------------------------- internals
    def _classify(self, request: IORequest) -> str:
        """Classify a request as 'replacement', 'recovery' or 'other'."""
        if request.is_write:
            value = request.hints.get(self._hint_name)
            if value in self._replacement_values:
                return "replacement"
            if value in self._recovery_values:
                return "recovery"
        return "other"

    def _remove(self, page: int) -> None:
        if page in self._high:
            del self._high[page]
        elif page in self._low:
            del self._low[page]

    def _enqueue(self, page: int, klass: str, seq: int) -> None:
        if klass == "replacement":
            self._high[page] = seq
        else:
            self._low[page] = None

    def _demote_stale(self, seq: int) -> None:
        """Move replacement-written pages that were never read back to the low queue."""
        while self._high:
            page, enqueued = next(iter(self._high.items()))
            if seq - enqueued <= self._lifetime:
                break
            del self._high[page]
            self._low[page] = None
            # Demoted pages become the low queue's coldest entries.
            self._low.move_to_end(page, last=False)

    def _evict_one(self) -> int:
        if self._low:
            victim, _ = self._low.popitem(last=False)
        else:
            victim, _ = self._high.popitem(last=False)
        return victim

    # --------------------------------------------------------------- access
    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        page = request.page
        hit = page in self._high or page in self._low
        klass = self._classify(request)
        self._demote_stale(seq)

        if hit:
            # Re-queue according to the class of the *most recent* request.
            self._remove(page)
            self._enqueue(page, klass, seq)
            return HIT

        if klass == "recovery" and not self._cache_recovery_writes:
            # Hard-coded response: recovery writes are not worth caching.
            return MISS_BYPASS

        if len(self) >= self.capacity:
            victim = self._evict_one()
            self._enqueue(page, klass, seq)
            return AccessOutcome(False, admitted=True, evicted=(victim,))
        self._enqueue(page, klass, seq)
        return MISS_ADMIT

    # ------------------------------------------------------------ inspection
    def contains(self, page: int) -> bool:
        return page in self._high or page in self._low

    def __len__(self) -> int:
        return len(self._high) + len(self._low)

    def cached_pages(self) -> Iterable[int]:
        yield from self._low
        yield from self._high

class OPTPolicy(ScalarPolicy):
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


#: The reference of each compiled policy, by registry name.
REFERENCES: dict[str, type[ScalarPolicy]] = {
    "LRU": LRUPolicy,
    "ARC": ARCPolicy,
    "TQ": TQPolicy,
    "OPT": OPTPolicy,
    "CLIC": clic_reference.CLICPolicy,
}


class ReferenceCluster(ScalarPolicy):
    """:class:`~repro.simulation.cluster.ShardedCache`, one request at a time.

    Takes the cluster's arguments.  Each request is routed by the
    reference route of the cluster's router (:func:`~tests.observer_reference
    .reference_route`) to one of the references of *policy*, whose
    capacities split the total by :func:`~repro.simulation.multiclient
    .partition_capacity`, and that shard's outcome is the cluster's.
    Offline shards are indexed as :meth:`ShardedCache.prepare` indexes
    them: the stream-wide index under a page-keyed router, each shard's
    sub-stream otherwise.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "LRU",
        shards: int = 1,
        router: str | ShardRouter = "hash",
        policy_kwargs: Mapping[str, object] | None = None,
    ):
        super().__init__(capacity)
        self.router = make_router(router, shards)
        #: The shard of each request, fed in stream order (client routing
        #: assigns shards in order of first appearance).
        self.route = reference_route(self.router)
        self.shards = [
            REFERENCES[policy](size, **dict(policy_kwargs or {}))
            for size in partition_capacity(capacity, shards)
        ]
        self.shard_count = shards
        self.offline = self.shards[0].offline
        self.name = f"{self.shards[0].name}x{shards}[{self.router.name}]"

    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        return self.shards[self.route(request)].access(request, seq)

    def prepare(self, requests: Any) -> None:
        if self.router.page_keyed:
            index = ReadIndex.build(requests)
        else:
            index = ReadIndex.build(requests, make_router(self.router.name, self.shard_count))
        for shard in self.shards:
            if shard.offline:
                shard.adopt_read_index(index)

    def contains(self, page: int) -> bool:
        return any(shard.contains(page) for shard in self.shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def cached_pages(self) -> Iterable[int]:
        for shard in self.shards:
            yield from shard.cached_pages()


@contextlib.contextmanager
def registered() -> Iterator[None]:
    """Register every reference as ``<NAME>-REFERENCE`` while active, and
    the reference cluster as ``SHARDED-REFERENCE``."""
    with pytest.MonkeyPatch.context() as patch:
        for name, policy_class in {**REFERENCES, "SHARDED": ReferenceCluster}.items():
            patch.setitem(registry._REGISTRY, f"{name}-REFERENCE", policy_class)
        yield


def reference_case(name: str, kwargs: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """The registry case that replays the references wherever *name* and
    *kwargs* build a C kernel: a compiled policy itself, and clusters of
    its shards (both need :func:`registered`)."""
    if name in REFERENCES or name == "SHARDED":
        return f"{name}-REFERENCE", kwargs
    return name, kwargs
