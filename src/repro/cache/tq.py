"""TQ: the ad-hoc write-hint-aware second-tier policy (Li et al., FAST '05).

TQ is the state-of-the-art hint-aware baseline in the CLIC paper.  It
exploits exactly one kind of hint — *write hints* attached to write requests
by the DBMS — with a hard-coded interpretation:

* **replacement writes** (including synchronous replacement writes) signal
  that the first tier is evicting the page; any future read of the page must
  come to the storage server, so the page is a *good* caching candidate.
* **recovery writes** signal that the page is being persisted for
  recoverability while remaining hot in the first-tier cache; future reads
  will be absorbed by the first tier, so the page is a *poor* caching
  candidate.
* read misses bring pages that the first tier is about to cache itself, so
  they are likewise poor candidates.

The published algorithm manages the cache with two logical queues — a
high-value queue holding pages whose most recent request was a replacement
(or synchronous) write, and a low-value queue holding everything else — and
evicts from the low-value queue (LRU order) before touching the high-value
queue.  A replacement-written page that is *not* read back within a bounded
number of requests loses its protection: it is demoted to the low-value
queue, so stale write pages cannot monopolise the cache.  This module
reproduces that structure (the demotion lifetime defaults to a small multiple
of the cache size).  Because TQ's response is hard-coded, it must be
configured with the name of the hint type that carries the write hint and the
hint values that denote each write class; defaults match the DB2/MySQL
schemas in :mod:`repro.trace.schema`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

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
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = ["TQPolicy", "DEFAULT_REQUEST_TYPE_HINT", "DEFAULT_REPLACEMENT_VALUES", "DEFAULT_RECOVERY_VALUES"]

#: Hint type that carries the write hint in the bundled DB2/MySQL schemas.
DEFAULT_REQUEST_TYPE_HINT = "request_type"
#: Hint values denoting replacement-class writes (good caching candidates).
DEFAULT_REPLACEMENT_VALUES = frozenset({"replacement_write", "synchronous_write"})
#: Hint values denoting recovery-class writes (poor caching candidates).
DEFAULT_RECOVERY_VALUES = frozenset({"recovery_write"})

# Request classes as the batch kernel's int codes (reads are always OTHER).
_OTHER, _REPLACEMENT, _RECOVERY = 0, 1, 2


class TQPolicy(CachePolicy):
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

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        # Fused batch kernel.  A request's class depends only on (is-write,
        # hint set), so it is computed once per hint-dictionary entry and
        # gathered per request; the two-queue state machine then runs over
        # the page/class/seq columns, performing access()'s OrderedDict
        # operations in the same order.  Stale demotion is seq arithmetic:
        # ``deadline`` is a lower bound on (oldest high-queue enqueue seq +
        # lifetime) — the oldest entry only ever gets younger — so the
        # demotion scan runs only once a request's seq passes it.
        name = self._hint_name
        replacement = self._replacement_values
        recovery = self._recovery_values
        class_of_hint = [
            _REPLACEMENT
            if value in replacement
            else _RECOVERY
            if value in recovery
            else _OTHER
            for value in (hints.get(name) for hints in chunk.hint_sets)
        ]
        classes = _np.where(
            chunk.write, _np.array(class_of_hint, _np.int64)[chunk.hint_id], _OTHER
        ).tolist()
        pages = chunk.page.tolist()
        seqs = chunk.seq_list()

        high = self._high
        low = self._low
        lifetime = self._lifetime
        capacity = self.capacity
        bypass_recovery = not self._cache_recovery_writes
        replacement_class = _REPLACEMENT
        recovery_class = _RECOVERY
        size = len(high) + len(low)
        deadline = next(iter(high.values())) + lifetime if high else -1

        n = len(pages)
        hit_flags = bytearray(n)
        admit_flags = bytearray(n)
        bypass_flags = bytearray(n)
        evict_pos: list[int] = []
        evicted: list[int] = []

        for i, page, klass, seq in zip(range(n), pages, classes, seqs):
            if seq > deadline and high:
                # _demote_stale(seq), then re-derive the exact deadline.
                while high:
                    oldest, enqueued = next(iter(high.items()))
                    if seq - enqueued <= lifetime:
                        break
                    del high[oldest]
                    low[oldest] = None
                    low.move_to_end(oldest, last=False)
                deadline = next(iter(high.values())) + lifetime if high else -1

            if page in high:
                del high[page]
                hit_flags[i] = 1
            elif page in low:
                del low[page]
                hit_flags[i] = 1
            elif klass == recovery_class and bypass_recovery:
                bypass_flags[i] = 1
                continue
            else:
                if size >= capacity:
                    # _evict_one()
                    if low:
                        victim, _ = low.popitem(last=False)
                    else:
                        victim, _ = high.popitem(last=False)
                    evict_pos.append(i)
                    evicted.append(victim)
                else:
                    size += 1
                admit_flags[i] = 1

            # _enqueue(page, klass, seq)
            if klass == replacement_class:
                if not high:
                    deadline = seq + lifetime
                high[page] = seq
            else:
                low[page] = None

        return _mixed_batch(hit_flags, admit_flags, bypass_flags, evict_pos, evicted)

    # ------------------------------------------------------------ inspection
    def contains(self, page: int) -> bool:
        return page in self._high or page in self._low

    def __len__(self) -> int:
        return len(self._high) + len(self._low)

    def cached_pages(self) -> Iterable[int]:
        yield from self._low
        yield from self._high
