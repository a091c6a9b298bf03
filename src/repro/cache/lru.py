"""Least-Recently-Used replacement (the paper's simplest baseline).

LRU replaces the page whose most recent request is oldest.  Both reads and
writes count as uses and admit the page into the cache.  The paper expects
LRU to perform poorly on second-tier traces because the first-tier cache
absorbs most of the temporal locality.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.cache.base import (
    HIT,
    MISS_ADMIT,
    AccessOutcome,
    AccessOutcomeBatch,
    CachePolicy,
    _admit_batch,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = ["LRUPolicy"]


class LRUPolicy(CachePolicy):
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

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        # Fused batch kernel: one pass over the page column operating on the
        # recency ranking directly — no request or outcome objects.  Performs
        # the same OrderedDict operations in the same order as access(), so
        # state and outcomes are bit-identical by construction (pinned by
        # tests/cache/test_batch_parity.py).
        pages = self._pages
        capacity = self._capacity
        move_to_end = pages.move_to_end
        popitem = pages.popitem
        hit_flags = bytearray(len(chunk))
        evict_pos: list[int] = []
        evicted: list[int] = []
        for i, page in enumerate(chunk.page.tolist()):
            if page in pages:
                move_to_end(page)
                hit_flags[i] = 1
            else:
                if len(pages) >= capacity:
                    evicted.append(popitem(last=False)[0])
                    evict_pos.append(i)
                pages[page] = None
        return _admit_batch(hit_flags, evict_pos, evicted)

    def contains(self, page: int) -> bool:
        return page in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def cached_pages(self) -> Iterable[int]:
        return iter(self._pages)
