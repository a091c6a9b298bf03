"""Common interface for storage-server cache replacement policies.

Every policy in this package (and :class:`repro.core.clic.CLICPolicy`)
implements :class:`CachePolicy`.  The trace-driven replay loop feeds a policy
one columnar chunk of requests at a time, in arrival order, each request
numbered with its server-assigned sequence number; the policy returns an
:class:`AccessOutcomeBatch` describing what happened to each request
(hit/miss, admission, bypass, evicted pages).  :meth:`CachePolicy.batch_access`
is a policy's one replay method.

Policies are **pure kernels**: they own only their replacement state (which
pages are cached, in what order/priority), never any accounting.  All
statistics — including the paper's *read hit ratio* metric — are derived
from the outcome batches by replay observers
(:mod:`repro.simulation.observers`); :class:`CacheStats` is the accounting
container those observers produce.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "AccessOutcomeBatch",
    "CacheStats",
    "CachePolicy",
    "validate_capacity",
]


def validate_capacity(capacity: int) -> int:
    """Validate a cache capacity expressed in pages."""
    if not isinstance(capacity, int):
        raise TypeError(f"capacity must be an int, got {type(capacity).__name__}")
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    return capacity


class AccessOutcomeBatch:
    """What a policy did with each request of a chunk, as columns.

    The batch is a policy's *only* output channel: replay observers fold
    it into statistics, so one counting rule holds for every policy.
    ``hit``, ``admitted`` and ``bypassed`` are numpy bool arrays (one lane
    per request): the requested page was cached when the request arrived,
    the request inserted its page, or the policy consciously declined to
    insert a missed page.  Evictions are stored CSR-style —
    ``evicted_pages`` holds every page removed from the cache in request
    order, ``evicted_offsets`` (length ``n + 1``) delimits request *i*'s
    evictions as ``evicted_pages[evicted_offsets[i]:evicted_offsets[i + 1]]``.
    An eviction may accompany a *hit* (OPT drops pages it proves dead on
    their final read).

    ``shard`` is the int64 column of the shard each request was routed to,
    set by a sharded cluster
    (:class:`~repro.simulation.cluster.ShardedCache`) so its observers never
    route a chunk again; ``None`` for every other policy.
    """

    __slots__ = (
        "hit",
        "admitted",
        "bypassed",
        "evicted_pages",
        "evicted_offsets",
        "shard",
    )

    def __init__(
        self,
        hit: Any,
        admitted: Any,
        bypassed: Any,
        evicted_pages: Any,
        evicted_offsets: Any,
        shard: Any = None,
    ):
        self.hit = hit
        self.admitted = admitted
        self.bypassed = bypassed
        self.evicted_pages = evicted_pages
        self.evicted_offsets = evicted_offsets
        self.shard = shard

    def __len__(self) -> int:
        return len(self.hit)

    @property
    def eviction_count(self) -> int:
        """Total pages evicted across the batch."""
        return len(self.evicted_pages)


@dataclass
class CacheStats:
    """Hit/miss accounting for one simulation run of a single policy.

    Produced by the stats observers (:mod:`repro.simulation.observers`)
    from a policy's outcome batches; policies themselves carry none.
    """

    read_requests: int = 0
    read_hits: int = 0
    write_requests: int = 0
    write_hits: int = 0
    evictions: int = 0
    admissions: int = 0
    bypasses: int = 0

    @property
    def requests(self) -> int:
        return self.read_requests + self.write_requests

    @property
    def read_hit_ratio(self) -> float:
        """Read hits / read requests (the paper's metric).  0.0 if no reads."""
        if self.read_requests == 0:
            return 0.0
        return self.read_hits / self.read_requests

    @property
    def overall_hit_ratio(self) -> float:
        if self.requests == 0:
            return 0.0
        return (self.read_hits + self.write_hits) / self.requests

    def as_dict(self) -> dict:
        return {
            "read_requests": self.read_requests,
            "read_hits": self.read_hits,
            "read_hit_ratio": self.read_hit_ratio,
            "write_requests": self.write_requests,
            "write_hits": self.write_hits,
            "evictions": self.evictions,
            "admissions": self.admissions,
            "bypasses": self.bypasses,
        }


class CachePolicy(abc.ABC):
    """Abstract base class for storage-server cache replacement policies.

    Subclasses implement the **policy kernel contract**:

    * :meth:`batch_access` replays one chunk, mutates only replacement
      state, and reports everything it did as an
      :class:`AccessOutcomeBatch` — it must never count anything itself;
    * the number of cached pages stays at or below ``capacity`` after every
      request;
    * the evicted pages reported in batches are exactly the pages that left
      the cache, so ``admissions - evictions == len(policy)`` holds at all
      times (one admission per residency);
    * a policy is built for one replay and then dropped, and every piece of
      its mutable state lives in the instance: two instances share at most
      read-only structures (OPT's future-read index).
    """

    #: Short name used by the policy registry and in experiment output.
    name: str = "base"

    #: Whether the policy requires the full future request stream up front
    #: (:meth:`prepare`) before simulation.  Only OPT sets this.
    offline: bool = False

    #: Whether an offline policy can adopt the stream-wide future index its
    #: class's ``build_read_index`` builds (via ``adopt_read_index``).  The
    #: engine then builds that index once per pass and shares it; offline
    #: policies that cannot share it are prepared with :meth:`prepare`.
    shares_read_index: bool = False

    def __init__(self, capacity: int):
        self._capacity = validate_capacity(capacity)

    # ------------------------------------------------------------------ API
    @property
    def capacity(self) -> int:
        """Cache capacity in pages."""
        return self._capacity

    def prepare(self, requests: Any) -> None:
        """Give offline policies (OPT) the full request stream in advance.

        Online policies ignore this.  The simulator calls it once before the
        first :meth:`batch_access` when the policy declares ``offline = True``.
        The engine passes the columnar stream it replays
        (``iter_columnar()``); called directly, *requests* may be any
        request source.  The replay numbers the stream's requests from 0,
        so position *i* of the stream is sequence number *i*.
        """

    @abc.abstractmethod
    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        """Replay one columnar chunk; return what happened to each request.

        The chunk's requests are processed in order, each with its own
        sequence number (``chunk.seq``: the 0-based position of the request
        in the stream).  Implementations mutate only their replacement
        state and report every admission, bypass and eviction in the
        returned batch; all statistics are derived from the batches by the
        replay observers.  The chunk is shared by every policy of a replay
        pass, so it is never written to.

        Outcomes and final state depend only on the request stream, never on
        where it is cut into chunks: one chunk of the whole stream and one
        chunk per request replay identically.  The scalar==batch
        equivalence suite (``tests/cache/test_batch_parity.py``) holds
        every implementation to a per-request reference over random chunk
        splits; lintkit's ``batch-kernel-parity`` rule enforces that every
        implementation is covered there.
        """

    @abc.abstractmethod
    def contains(self, page: int) -> bool:
        """Return whether *page* is currently cached (no side effects)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of pages currently cached."""

    def cached_pages(self) -> Iterable[int]:
        """Iterate over the currently cached page ids (order unspecified).

        The default implementation raises ``NotImplementedError``; concrete
        policies in this package all override it, and tests rely on it to
        check invariants.
        """
        raise NotImplementedError

    # -------------------------------------------------------------- helpers
    def _check_invariant(self) -> None:
        """Assert the capacity invariant.  Cheap; used by tests."""
        if len(self) > self._capacity:
            raise AssertionError(
                f"{self.name}: cached pages {len(self)} exceed capacity {self._capacity}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(capacity={self._capacity}, cached={len(self)})"
