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

The per-request loop runs in C (``repro/core/_arc_kernel.c``): one page
table over the four lists' nodes, each tagged with its list, and ``p`` as
a double updated with the reference's exact operations.
"""

from __future__ import annotations

from repro.core.kernel import KernelPolicy

__all__ = ["ARCPolicy"]


class ARCPolicy(KernelPolicy):
    """Adaptive Replacement Cache."""

    name = "ARC"
    kernel = "arc"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._open(capacity)

    # The kernel reads only the page column.  Bound here so that
    # instrumentation wrapping a class's own methods times ARC by itself.
    batch_access = KernelPolicy.batch_access

    @property
    def target_t1_size(self) -> float:
        """Current value of the adaptation parameter ``p`` (for tests/inspection)."""
        return float(self._lib.arc_p(self._handle))
