"""Common interface for storage-server cache replacement policies.

Every policy in this package (and :class:`repro.core.clic.CLICPolicy`)
implements :class:`CachePolicy`.  The trace-driven replay loop feeds a policy
one columnar chunk of requests at a time, in arrival order, each request
numbered with its server-assigned sequence number; the policy returns an
:class:`AccessOutcomeBatch` describing what happened to each request
(hit/miss, admission, bypass, evicted pages).  :meth:`CachePolicy.access`
is the one-request case, returning one :class:`AccessOutcome`.

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
from typing import Any, Iterable, Sequence

from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "AccessOutcome",
    "AccessOutcomeBatch",
    "HIT",
    "MISS_ADMIT",
    "MISS_BYPASS",
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


class AccessOutcome:
    """What one :meth:`CachePolicy.access` call did, as a value object.

    The outcome is the policy's *only* output channel (batched per chunk as
    an :class:`AccessOutcomeBatch`): replay observers fold the batches into
    statistics, so one counting rule holds for every policy.  The fields
    mirror the accounting events the old in-policy bookkeeping mutated:

    * ``hit`` — the requested page was cached when the request arrived;
    * ``admitted`` — the page was inserted into the cache by this access;
    * ``bypassed`` — the policy consciously declined to admit a missed page;
    * ``evicted`` — pages removed from the cache by this access, in eviction
      order.  Usually empty or one page; an eviction may accompany a *hit*
      (OPT drops pages it proves dead on their final read).

    Hot-path note: the three common cases are interned as module singletons
    (:data:`HIT`, :data:`MISS_ADMIT`, :data:`MISS_BYPASS`) so a
    per-request loop allocates only for evicting outcomes.
    """

    __slots__ = ("hit", "admitted", "bypassed", "evicted")

    def __init__(
        self,
        hit: bool,
        admitted: bool = False,
        bypassed: bool = False,
        evicted: tuple[int, ...] = (),
    ):
        self.hit = hit
        self.admitted = admitted
        self.bypassed = bypassed
        self.evicted = evicted

    def __bool__(self) -> bool:
        """Truthiness is the hit flag (``if policy.access(...)`` reads as
        "if it hit", matching the historical bool return)."""
        return self.hit

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessOutcome):
            return NotImplemented
        return (
            self.hit == other.hit
            and self.admitted == other.admitted
            and self.bypassed == other.bypassed
            and self.evicted == other.evicted
        )

    def __hash__(self) -> int:
        return hash((self.hit, self.admitted, self.bypassed, self.evicted))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = [f"hit={self.hit}"]
        if self.admitted:
            flags.append("admitted")
        if self.bypassed:
            flags.append("bypassed")
        if self.evicted:
            flags.append(f"evicted={self.evicted}")
        return f"AccessOutcome({', '.join(flags)})"


#: The requested page was cached; nothing else changed.
HIT = AccessOutcome(True)
#: Miss, page admitted, nothing evicted (the cache had room).
MISS_ADMIT = AccessOutcome(False, admitted=True)
#: Miss, page deliberately not admitted.
MISS_BYPASS = AccessOutcome(False, bypassed=True)


class AccessOutcomeBatch:
    """One :class:`AccessOutcome` per request of a chunk, as columns.

    The batch-kernel analogue of :class:`AccessOutcome`: ``hit``,
    ``admitted`` and ``bypassed`` are numpy bool arrays (one lane per
    request), and evictions are stored CSR-style — ``evicted_pages`` holds
    every evicted page in request order, ``evicted_offsets`` (length
    ``n + 1``) delimits request *i*'s evictions as
    ``evicted_pages[evicted_offsets[i]:evicted_offsets[i + 1]]``.

    ``shard`` is the int64 column of the shard each request was routed to,
    set by a sharded cluster
    (:class:`~repro.simulation.cluster.ShardedCache`) so its observers never
    route a chunk again; ``None`` for every other policy.

    :meth:`from_outcomes` lifts a scalar outcome list into a batch (the
    default :meth:`CachePolicy.batch_access` fallback uses it).
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

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[AccessOutcome]) -> "AccessOutcomeBatch":
        """Lift a scalar outcome list into a batch."""
        n = len(outcomes)
        hit = _np.fromiter((outcome.hit for outcome in outcomes), _np.bool_, n)
        admitted = _np.fromiter(
            (outcome.admitted for outcome in outcomes), _np.bool_, n
        )
        bypassed = _np.fromiter(
            (outcome.bypassed for outcome in outcomes), _np.bool_, n
        )
        offsets = _np.zeros(n + 1, _np.int64)
        _np.cumsum(
            _np.fromiter((len(outcome.evicted) for outcome in outcomes), _np.int64, n),
            out=offsets[1:],
        )
        total = int(offsets[-1])
        if total:
            pages = _np.fromiter(
                (
                    page
                    for outcome in outcomes
                    for page in outcome.evicted
                ),
                _np.int64,
                total,
            )
        else:
            pages = _np.zeros(0, _np.int64)
        return cls(hit, admitted, bypassed, pages, offsets)


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

    * :meth:`access` processes one request, mutates only replacement state,
      and reports everything it did as an :class:`AccessOutcome` — it must
      never count anything itself;
    * the number of cached pages stays at or below ``capacity`` after every
      access;
    * the evicted pages reported in outcomes are exactly the pages that left
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
        first :meth:`access` when the policy declares ``offline = True``.
        The engine passes the columnar stream it replays
        (``iter_columnar()``); called directly, *requests* may be any
        request source.  The replay numbers the stream's requests from 0,
        so position *i* of the stream is sequence number *i*.
        """

    @abc.abstractmethod
    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        """Process one request; return what happened as an outcome event.

        ``seq`` is the server-assigned sequence number (0-based position of
        the request in the stream).  Implementations mutate only their
        replacement state and report every admission, bypass and eviction in
        the returned :class:`AccessOutcome`; all statistics are derived from
        outcome batches by the replay observers.
        """

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        """Process one columnar chunk of requests; return batched outcomes.

        **Batch kernel contract**: the returned batch must be
        outcome-for-outcome identical to calling :meth:`access` on each of
        the chunk's requests in order (with the chunk's own sequence
        numbers), and must leave the policy in the identical state.  The
        default implementation *is* that scalar loop — it materialises the
        chunk's requests and folds the outcomes — so overriding is purely a
        performance fast path, never a semantic one.  Every override must be
        covered by the scalar==batch equivalence suite
        (``tests/cache/test_batch_parity.py``); lintkit's
        ``batch-kernel-parity`` rule enforces this.

        The replay engine calls only this method, so a subclass that
        overrides :meth:`access` of a policy with a fused kernel must
        override this one too, or set ``batch_access =
        CachePolicy.batch_access`` to route every request through its
        :meth:`access`.
        """
        requests = chunk.requests()
        outcomes = list(map(self.access, requests, chunk.seq_list()))
        return AccessOutcomeBatch.from_outcomes(outcomes)

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
