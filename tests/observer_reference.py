"""The per-request accounting folds: the observers' and routers' reference.

The replay engine folds each chunk's outcome batch with column arithmetic
(:mod:`repro.simulation.observers`) and routes a cluster's chunk with one
``route_batch`` call (:mod:`repro.simulation.cluster`).  These are the
per-request definitions those column folds replaced: one
``(request, seq, outcome)`` event at a time, in stream order.  The engine
oracle's scalar replay folds and routes with them, and the observer,
router and queueing tests hold the column folds to them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.cache.base import AccessOutcome, AccessOutcomeBatch, CacheStats
from repro.simulation.observers import RollingObserver
from repro.trace.columnar import ColumnarChunk

if TYPE_CHECKING:  # imported for type annotations only
    from repro.simulation.cluster import ShardRouter
    from repro.simulation.request import IORequest

__all__ = [
    "RollingReference",
    "decode_outcomes",
    "lift_outcome",
    "mix_page",
    "record",
    "record_outcome",
    "reference_route",
]


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
    batch = AccessOutcomeBatch.from_outcomes((outcome,))
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


# ---------------------------------------------------------------- decoding
def decode_outcomes(batch: AccessOutcomeBatch) -> list[AccessOutcome]:
    """The batch as its equivalent scalar outcome list."""
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
