"""ARC: Adaptive Replacement Cache (Megiddo & Modha, FAST '03).

ARC is the paper's strongest hint-oblivious baseline.  It balances recency
and frequency by splitting the cache into two LRU lists, T1 (pages seen
once recently) and T2 (pages seen at least twice recently), and keeps two
ghost lists, B1 and B2, of recently evicted page ids.  Ghost hits adapt the
target size ``p`` of T1.

This is a direct implementation of the ARC pseudo-code (Algorithm "ARC(c)")
from the original paper.  Both reads and writes count as references, matching
how the CLIC paper drives all policies with the full request stream.  Note
that the CLIC paper points out ARC enjoys a small space advantage in their
comparison because its ghost lists are not charged against the cache size; we
preserve that convention (see ``CLICConfig.charge_metadata`` for how CLIC is
charged).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.cache.base import (
    HIT,
    AccessOutcome,
    AccessOutcomeBatch,
    CachePolicy,
    _admit_batch,
    _all_hit_batch,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = ["ARCPolicy"]


class ARCPolicy(CachePolicy):
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

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        # Fused batch kernel, bit-identical to the access() loop (pinned by
        # tests/cache/test_batch_parity.py).  Misses and ghost hits mutate
        # the ghost lists the next request reads, so the general path is a
        # lean loop with locally-bound dict ops; a chunk whose pages are all
        # resident (Case I throughout) skips the per-request flag/ghost work
        # and only performs the ordered T1->T2 / MRU moves.
        pages = chunk.page.tolist()
        t1 = self._t1
        t2 = self._t2
        n = len(pages)

        if all(page in t1 or page in t2 for page in pages):
            for page in pages:
                if page in t1:
                    del t1[page]
                else:
                    del t2[page]
                t2[page] = None
            return _all_hit_batch(n)

        b1 = self._b1
        b2 = self._b2
        c = self.capacity
        p = self._p
        hit_flags = bytearray(n)
        evict_pos: list[int] = []
        evicted: list[int] = []
        # REPLACE(x, p) is inlined at its three call sites below, with the
        # adaptation parameter kept in the local ``p`` (written back once at
        # the end) — the dominant per-miss cost in this loop.
        for i, page in enumerate(pages):
            # Case I: hit in T1 or T2 -> move to MRU of T2.
            if page in t1:
                del t1[page]
                t2[page] = None
                hit_flags[i] = 1
            elif page in t2:
                del t2[page]
                t2[page] = None
                hit_flags[i] = 1
            # Case II: ghost hit in B1 -> favour recency (grow p).
            elif page in b1:
                delta = 1.0 if len(b1) >= len(b2) else len(b2) / len(b1)
                p = min(p + delta, float(c))
                if t1 and len(t1) > p:
                    victim, _ = t1.popitem(last=False)
                    b1[victim] = None
                else:
                    victim, _ = t2.popitem(last=False)
                    b2[victim] = None
                evicted.append(victim)
                evict_pos.append(i)
                del b1[page]
                t2[page] = None
            # Case III: ghost hit in B2 -> favour frequency (shrink p).
            elif page in b2:
                delta = 1.0 if len(b2) >= len(b1) else len(b1) / len(b2)
                p = max(p - delta, 0.0)
                if t1 and (len(t1) > p or len(t1) == int(p)):
                    victim, _ = t1.popitem(last=False)
                    b1[victim] = None
                else:
                    victim, _ = t2.popitem(last=False)
                    b2[victim] = None
                evicted.append(victim)
                evict_pos.append(i)
                del b2[page]
                t2[page] = None
            # Case IV: complete miss.
            else:
                l1 = len(t1) + len(b1)
                if l1 == c:
                    if len(t1) < c:
                        b1.popitem(last=False)
                        if t1 and len(t1) > p:
                            victim, _ = t1.popitem(last=False)
                            b1[victim] = None
                        else:
                            victim, _ = t2.popitem(last=False)
                            b2[victim] = None
                    else:
                        # B1 is empty; evict the LRU page of T1 directly.
                        victim, _ = t1.popitem(last=False)
                    evicted.append(victim)
                    evict_pos.append(i)
                elif l1 < c and l1 + len(t2) + len(b2) >= c:
                    if l1 + len(t2) + len(b2) == 2 * c:
                        b2.popitem(last=False)
                    if t1 and len(t1) > p:
                        victim, _ = t1.popitem(last=False)
                        b1[victim] = None
                    else:
                        victim, _ = t2.popitem(last=False)
                        b2[victim] = None
                    evicted.append(victim)
                    evict_pos.append(i)
                t1[page] = None
        self._p = p
        return _admit_batch(hit_flags, evict_pos, evicted)

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
