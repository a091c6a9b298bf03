"""Least-Recently-Used replacement (the paper's simplest baseline).

LRU replaces the page whose most recent request is oldest.  Both reads and
writes count as uses and admit the page into the cache.  The paper expects
LRU to perform poorly on second-tier traces because the first-tier cache
absorbs most of the temporal locality.

The per-request loop runs in C (``repro/core/_lru_kernel.c``): a page table
and one recency list, least recently used first.
"""

from __future__ import annotations

from repro.core.kernel import KernelPolicy

__all__ = ["LRUPolicy"]


class LRUPolicy(KernelPolicy):
    """Classic LRU over all requests (reads and writes)."""

    name = "LRU"
    kernel = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._open(capacity)

    # The kernel reads only the page column.  Bound here so that
    # instrumentation wrapping a class's own methods times LRU by itself.
    batch_access = KernelPolicy.batch_access
