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

The per-request loop runs in C (``repro/core/_tq_kernel.c``): one page table
and the two queues, with each high-queue page's enqueue seq.  A request's
class depends only on its hint set, so Python classifies each entry of a
chunk's hint table once and the kernel reads the class through the chunk's
hint-index column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.kernel import KernelPolicy

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.core.hints import HintSet
    from repro.trace.columnar import ColumnarChunk

__all__ = ["TQPolicy", "DEFAULT_REQUEST_TYPE_HINT", "DEFAULT_REPLACEMENT_VALUES", "DEFAULT_RECOVERY_VALUES"]

#: Hint type that carries the write hint in the bundled DB2/MySQL schemas.
DEFAULT_REQUEST_TYPE_HINT = "request_type"
#: Hint values denoting replacement-class writes (good caching candidates).
DEFAULT_REPLACEMENT_VALUES = frozenset({"replacement_write", "synchronous_write"})
#: Hint values denoting recovery-class writes (poor caching candidates).
DEFAULT_RECOVERY_VALUES = frozenset({"recovery_write"})

# Write classes as the kernel's codes (reads are always OTHER).
_OTHER, _REPLACEMENT, _RECOVERY = 0, 1, 2


class TQPolicy(KernelPolicy):
    """Two-queue, write-hint-aware replacement."""

    name = "TQ"
    kernel = "tq"
    lookup_key = "hint"

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
        self._open(capacity, self._lifetime, not cache_recovery_writes)

    def _write_class(self, hints: HintSet) -> int:
        """The class of a write carrying *hints*."""
        value = hints.get(self._hint_name)
        if value in self._replacement_values:
            return _REPLACEMENT
        if value in self._recovery_values:
            return _RECOVERY
        return _OTHER

    # Bound here so that instrumentation wrapping a class's own methods
    # times TQ by itself.
    batch_access = KernelPolicy.batch_access

    def _lookup(self, chunk: "ColumnarChunk") -> Any:
        """The write class of each entry of the chunk's hint table."""
        return self._per_hint_set(chunk, self._write_class)
