"""The per-request definitions: the policies', observers' and routers' reference.

The replay engine feeds each policy one chunk at a time
(:meth:`~repro.cache.base.CachePolicy.batch_access`), folds each chunk's
outcome batch with column arithmetic (:mod:`repro.simulation.observers`)
and routes a cluster's chunk with one ``route_batch`` call
(:mod:`repro.simulation.cluster`).  These are the per-request definitions
those chunk paths replaced: one ``(request, seq, outcome)`` event at a
time, in stream order.

* :class:`AccessOutcome` is one request's outcome, and :class:`ScalarPolicy`
  the base of the pure-Python policies (``tests/policy_reference.py``,
  ``tests/clic_reference.py``): each defines ``access(request, seq)``, and
  its ``batch_access`` is the scalar lift over it.
* :func:`step` replays one request through any policy's ``batch_access``
  and :func:`decode_outcomes` reads a batch back as outcomes, so a test
  steps a compiled policy and a reference alike.
* The folds and the route: the engine oracle's scalar replay folds and
  routes with them, and the observer, router and queueing tests hold the
  column folds to them.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.cache.base import AccessOutcomeBatch, CachePolicy, CacheStats
from repro.simulation.observers import RollingObserver
from repro.trace.columnar import ColumnarChunk

if TYPE_CHECKING:  # imported for type annotations only
    from repro.simulation.cluster import ShardRouter
    from repro.simulation.request import IORequest

__all__ = [
    "AccessOutcome",
    "HIT",
    "MISS_ADMIT",
    "MISS_BYPASS",
    "RollingReference",
    "ScalarPolicy",
    "batch_of",
    "decode_outcomes",
    "lift_outcome",
    "mix_page",
    "record",
    "record_outcome",
    "reference_route",
    "step",
]


# --------------------------------------------------------------- outcomes
class AccessOutcome:
    """What one request did to a policy, as a value object: one lane of an
    :class:`~repro.cache.base.AccessOutcomeBatch`.

    * ``hit`` — the requested page was cached when the request arrived;
    * ``admitted`` — the page was inserted into the cache by this request;
    * ``bypassed`` — the policy consciously declined to admit a missed page;
    * ``evicted`` — pages removed from the cache by this request, in
      eviction order.  Usually empty or one page; an eviction may accompany
      a *hit* (OPT drops pages it proves dead on their final read).

    The three common cases are interned as module singletons (:data:`HIT`,
    :data:`MISS_ADMIT`, :data:`MISS_BYPASS`) so a per-request loop
    allocates only for evicting outcomes.
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
        """Truthiness is the hit flag."""
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


def batch_of(outcomes: Sequence[AccessOutcome]) -> AccessOutcomeBatch:
    """An outcome list as the equivalent batch."""
    offsets = np.zeros(len(outcomes) + 1, np.int64)
    np.cumsum(np.array([len(outcome.evicted) for outcome in outcomes], np.int64), out=offsets[1:])
    return AccessOutcomeBatch(
        np.array([outcome.hit for outcome in outcomes], np.bool_),
        np.array([outcome.admitted for outcome in outcomes], np.bool_),
        np.array([outcome.bypassed for outcome in outcomes], np.bool_),
        np.array([page for outcome in outcomes for page in outcome.evicted], np.int64),
        offsets,
    )


def decode_outcomes(batch: AccessOutcomeBatch) -> list[AccessOutcome]:
    """The batch as its equivalent outcome list."""
    offsets = batch.evicted_offsets.tolist()
    return [
        AccessOutcome(
            bool(batch.hit[i]),
            admitted=bool(batch.admitted[i]),
            bypassed=bool(batch.bypassed[i]),
            evicted=tuple(batch.evicted_pages[offsets[i] : offsets[i + 1]].tolist()),
        )
        for i in range(len(batch))
    ]


class ScalarPolicy(CachePolicy):
    """A policy defined one request at a time: the base of the references.

    Subclasses implement :meth:`access`; :meth:`batch_access` is the scalar
    lift over it, so a reference replays wherever a compiled policy does.
    """

    @abc.abstractmethod
    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        """Process one request numbered *seq*; return what happened to it."""

    def batch_access(self, chunk: ColumnarChunk) -> AccessOutcomeBatch:
        """Each of the chunk's requests through :meth:`access`, in order,
        with the chunk's own sequence numbers."""
        return batch_of(list(map(self.access, chunk.requests(), chunk.seq.tolist())))


def step(policy: CachePolicy, request: IORequest, seq: int) -> AccessOutcome:
    """Replay one request numbered *seq* through *policy*'s ``batch_access``,
    as a one-request chunk; return its outcome."""
    (outcome,) = decode_outcomes(policy.batch_access(ColumnarChunk.from_requests((request,), seq)))
    return outcome


# ------------------------------------------------------------------ stats
def record(stats: CacheStats, request: IORequest, hit: bool) -> None:
    """Record the hit/miss outcome of one request."""
    if request.is_read:
        stats.read_requests += 1
        if hit:
            stats.read_hits += 1
    else:
        stats.write_requests += 1
        if hit:
            stats.write_hits += 1


def record_outcome(stats: CacheStats, request: IORequest, outcome: AccessOutcome) -> None:
    """Fold one full :class:`AccessOutcome` event into the counters: the
    stats observer's counting rule, and each shard's under a cluster."""
    record(stats, request, outcome.hit)
    if outcome.admitted:
        stats.admissions += 1
    if outcome.bypassed:
        stats.bypasses += 1
    if outcome.evicted:
        stats.evictions += len(outcome.evicted)


class RollingReference(RollingObserver):
    """A :class:`RollingObserver` folded one request at a time."""

    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        boundary = seq - (seq % self._window)
        if boundary > self._start:
            self._close(boundary)
        counts = self._counts
        if request.is_read:
            counts[0] += 1
            if outcome.hit:
                counts[1] += 1
        else:
            counts[2] += 1
            if outcome.hit:
                counts[3] += 1
        if outcome.evicted:
            counts[4] += len(outcome.evicted)
        self._seq = seq + 1


def lift_outcome(
    shard: int | None, request: IORequest, seq: int, outcome: AccessOutcome
) -> tuple[ColumnarChunk, AccessOutcomeBatch]:
    """One replayed request as a one-request chunk and batch, so a column
    observer folds it through ``on_batch``.  *shard* (the request's routed
    shard) sets the batch's shard column; ``None`` for a plain policy."""
    batch = batch_of((outcome,))
    if shard is not None:
        batch.shard = np.array([shard], np.int64)
    return ColumnarChunk.from_requests((request,), seq), batch


# ---------------------------------------------------------------- routing
def mix_page(page: int) -> int:
    """Deterministic 64-bit integer mix (murmur3 fmix64 finalizer) of one
    page, in Python ints."""
    page &= 0xFFFFFFFFFFFFFFFF
    page = ((page ^ (page >> 33)) * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    page = ((page ^ (page >> 33)) * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    return page ^ (page >> 33)


def reference_route(router: ShardRouter) -> Callable[[IORequest], int]:
    """A fresh per-request route of *router*'s kind and shard count: the
    page's mix modulo the shards, or each client's shard, assigned
    round-robin in order of first appearance."""
    shards = router.shards
    if router.name == "hash":
        return lambda request: mix_page(request.page) % shards
    assignments: dict[str, int] = {}
    return lambda request: assignments.setdefault(
        request.client_id, len(assignments) % shards
    )
