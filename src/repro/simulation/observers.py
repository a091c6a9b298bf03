"""Composable replay observers: all accounting, fed from one replay loop.

Policies are pure kernels (:mod:`repro.cache.base`): ``access`` returns an
:class:`~repro.cache.base.AccessOutcome` event and mutates nothing but
replacement state.  Everything the simulation reports — hit/miss statistics,
per-shard breakdowns, a seek device's service-time pricing, rolling time
series — is an observer over the outcome stream, attached by the single
replay orchestrator (:class:`~repro.simulation.engine.MultiPolicySimulator`).
A position-independent device needs no observer of its own: the engine
prices it from the stats observers' hit/miss counts.

The observer contract (:class:`ReplayObserver`):

* :meth:`~ReplayObserver.on_outcome` — fold one ``(request, seq, outcome)``
  event: the counting observers' scalar reference.  The pricing observers
  (:class:`CostObserver`, the queueing observer) fold it as a one-request
  chunk through ``on_batch`` (:func:`lift_outcome`).
* :meth:`~ReplayObserver.on_batch` — fold one columnar chunk and its
  batched outcomes; the only hook the replay loop calls per chunk.  The
  default loops over :meth:`~ReplayObserver.on_outcome`; the built-in
  observers override it with column arithmetic.  Chunks end wherever the
  source's blocks end, so an observer that accounts fixed windows of the
  stream splits a chunk that straddles one itself.
* :meth:`~ReplayObserver.finalize` — the accounting product.  Non-
  destructive: safe to call more than once.

Every observer accounts one whole replay, numbered from sequence number 0:
the engine never splits a stream across observers, so there is nothing to
merge.  Writing an observer: subclass :class:`ReplayObserver`, implement
``on_outcome`` (override ``on_batch`` only if profiling says so) and
``finalize``, then attach instances via the simulators'
``observer_factories`` hook (``factory(policy)``).  Observers must not
call back into the policy's ``access`` and must not mutate requests or
outcomes — many observers share one outcome stream.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as _np

from repro.cache.base import AccessOutcome, AccessOutcomeBatch, CacheStats
from repro.simulation.cluster import is_cluster, routed_shards
from repro.simulation.costmodel import CostModel, LatencyStats, SeekWalk, running_sum
from repro.trace.columnar import ColumnarChunk

if TYPE_CHECKING:  # imported for type annotations only
    from repro.simulation.cluster import ShardedCache
    from repro.simulation.metrics import RollingMetrics
    from repro.simulation.request import IORequest

__all__ = [
    "ReplayObserver",
    "StatsObserver",
    "ShardStatsObserver",
    "CostObserver",
    "RollingObserver",
    "lift_outcome",
    "shard_observer_for",
]


class ReplayObserver(abc.ABC):
    """Protocol for accounting fed from the replay loop's outcome stream."""

    @abc.abstractmethod
    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        """Fold one replayed request's outcome event."""

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        """Fold one columnar chunk of batched outcomes (request *i* of the
        chunk has outcome *i* of the batch).  Default: materialise the
        chunk's requests and the batch's scalar outcomes and loop over
        :meth:`on_outcome` — so any observer is correct out of the box;
        column-native overrides are purely a performance fast path."""
        on_outcome = self.on_outcome
        for request, seq, outcome in zip(
            chunk.requests(), chunk.seq_list(), batch.outcomes()
        ):
            on_outcome(request, seq, outcome)

    @abc.abstractmethod
    def finalize(self) -> object:
        """Return the accounting product (non-destructive)."""


def lift_outcome(
    route: "Callable[[IORequest], int] | None",
    request: IORequest,
    seq: int,
    outcome: AccessOutcome,
) -> tuple[ColumnarChunk, AccessOutcomeBatch]:
    """One replayed request as a one-request chunk and batch, so a
    column-native observer's ``on_outcome`` is the one-request case of its
    ``on_batch``.  *route* (a cluster's ``router.route``) sets the batch's
    shard column; ``None`` for a plain policy."""
    batch = AccessOutcomeBatch.from_outcomes((outcome,))
    if route is not None:
        batch.shard = _np.array([route(request)], _np.int64)
    return ColumnarChunk.from_requests((request,), seq), batch


class StatsObserver(ReplayObserver):
    """Reconstructs :class:`CacheStats` from the outcome stream.

    One counting rule for every policy: requests/hits split by read/write,
    one admission per ``outcome.admitted``, one bypass per
    ``outcome.bypassed``, ``len(outcome.evicted)`` evictions.  The counters
    are public attributes so the replay loop can snapshot per-client totals
    without paying a :class:`CacheStats` allocation mid-run.
    """

    __slots__ = (
        "read_requests",
        "read_hits",
        "write_requests",
        "write_hits",
        "evictions",
        "admissions",
        "bypasses",
    )

    def __init__(self):
        self.read_requests = 0
        self.read_hits = 0
        self.write_requests = 0
        self.write_hits = 0
        self.evictions = 0
        self.admissions = 0
        self.bypasses = 0

    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        if request.is_read:
            self.read_requests += 1
            if outcome.hit:
                self.read_hits += 1
        else:
            self.write_requests += 1
            if outcome.hit:
                self.write_hits += 1
        if outcome.admitted:
            self.admissions += 1
        if outcome.bypassed:
            self.bypasses += 1
        if outcome.evicted:
            self.evictions += len(outcome.evicted)

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        # Whole-column popcounts replace the per-outcome loop.
        write = chunk.write
        hit = batch.hit
        wr = int(_np.count_nonzero(write))
        wh = int(_np.count_nonzero(hit & write))
        self.read_requests += len(chunk) - wr
        self.read_hits += int(_np.count_nonzero(hit)) - wh
        self.write_requests += wr
        self.write_hits += wh
        self.evictions += batch.eviction_count
        self.admissions += int(_np.count_nonzero(batch.admitted))
        self.bypasses += int(_np.count_nonzero(batch.bypassed))

    def finalize(self) -> CacheStats:
        return CacheStats(
            read_requests=self.read_requests,
            read_hits=self.read_hits,
            write_requests=self.write_requests,
            write_hits=self.write_hits,
            evictions=self.evictions,
            admissions=self.admissions,
            bypasses=self.bypasses,
        )


class ShardStatsObserver(ReplayObserver):
    """Per-shard :class:`CacheStats` for sharded clusters.

    A batch carries the shard each request was routed to (its ``shard``
    column, set by :meth:`~repro.simulation.cluster.ShardedCache
    .batch_access`); the scalar :meth:`on_outcome` reference routes the
    request with the cluster's own router, after the access, so a stateful
    router has already made its assignment and routing is a pure lookup.
    The cluster facade returns the routed shard's outcome unchanged, so
    attributing the whole event to that shard reconstructs what the shard's
    own accounting used to report.
    """

    __slots__ = ("_route", "_shards")

    def __init__(self, cluster: "ShardedCache"):
        self._route = cluster.router.route
        self._shards = [CacheStats() for _ in range(cluster.shard_count)]

    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        self._shards[self._route(request)].record_outcome(request, outcome)

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        # One shard-indexed count per counter, over the ids the cluster
        # routed the chunk with.
        ids = routed_shards(batch)
        shards = len(self._shards)
        write = chunk.write
        hit = batch.hit

        def count(mask: Any) -> list[int]:
            return _np.bincount(ids[mask], minlength=shards).tolist()

        totals = _np.bincount(ids, minlength=shards).tolist()
        columns = zip(
            totals,
            count(write),
            count(hit),
            count(hit & write),
            count(batch.admitted),
            count(batch.bypassed),
            _np.bincount(
                ids, weights=_np.diff(batch.evicted_offsets), minlength=shards
            ).astype(_np.int64).tolist(),
        )
        for stats, (total, wr, hits, wh, admitted, bypassed, evictions) in zip(
            self._shards, columns
        ):
            stats.read_requests += total - wr
            stats.read_hits += hits - wh
            stats.write_requests += wr
            stats.write_hits += wh
            stats.admissions += admitted
            stats.bypasses += bypassed
            stats.evictions += evictions

    def finalize(self) -> tuple[CacheStats, ...]:
        return tuple(replace(stats) for stats in self._shards)


def shard_observer_for(policy: object) -> ShardStatsObserver | None:
    """A :class:`ShardStatsObserver` for sharded clusters
    (:func:`~repro.simulation.cluster.is_cluster`), else ``None``."""
    return ShardStatsObserver(policy) if is_cluster(policy) else None


class CostObserver(ReplayObserver):
    """Service-time pricing of one policy's replay on a seek device (HDD);
    position-independent devices are priced from the stats observers'
    counts instead.  Per chunk it runs its own
    :class:`~repro.simulation.costmodel.SeekWalk` (one head per shard, read
    from the ids the cluster routed the chunk with) and sums each shard's
    miss prices and write seeks in stream order; each shard's hits and
    writes are counted and priced count x price at :meth:`finalize`.
    """

    __slots__ = ("_model", "_walk", "_route", "_seeks", "_read_hits", "_writes")

    def __init__(self, model: CostModel, policy: object):
        self._model = model
        self._route: Callable[[IORequest], int] | None = None
        shards = 1
        if is_cluster(policy):
            shards = policy.shard_count
            self._route = policy.router.route
        self._walk = SeekWalk(model, shards)
        #: Per shard: the reads and write seeks priced by the walk so far.
        self._seeks = [LatencyStats() for _ in range(shards)]
        self._read_hits = [0] * shards
        self._writes = [0] * shards

    def on_outcome(self, request: IORequest, seq: int, outcome: AccessOutcome) -> None:
        self.on_batch(*lift_outcome(self._route, request, seq, outcome))

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        write = chunk.write
        hit = batch.hit
        ids = routed_shards(batch) if self._route is not None else None
        seek = self._walk.seeks(chunk.page, write, hit, ids)
        profile = self._model.profile
        miss = ~(write | hit)
        read_hit = hit & ~write
        miss_us = profile.read_base_us + profile.read_transfer_us
        writes_seek = self._model.writes_touch_device
        for shard, stats in enumerate(self._seeks):
            mine = True if ids is None else ids == shard
            stats.record_reads(miss_us + seek[miss & mine])
            if writes_seek:
                stats.total_write_us = running_sum(
                    stats.total_write_us, seek[write & mine]
                )
            self._read_hits[shard] += int(_np.count_nonzero(read_hit & mine))
            self._writes[shard] += int(_np.count_nonzero(write & mine))

    def _priced_shards(self) -> list[LatencyStats]:
        """Each shard's stats: its walked reads and write seeks, then its
        hits and writes at their class prices."""
        model = self._model
        shards = []
        for seeks, read_hits, writes in zip(self._seeks, self._read_hits, self._writes):
            stats = replace(seeks, read_histogram=list(seeks.read_histogram))
            if read_hits:
                stats.record_read(model.profile.cache_hit_us, read_hits)
            if writes:
                stats.record_write(model.write_cost_us, writes)
            shards.append(stats)
        return shards

    def finalize(self) -> LatencyStats:
        """The fleet's stats: a cluster's merged shards, or a plain
        policy's one device."""
        shards = self._priced_shards()
        return LatencyStats.merge_all(shards) if self._route is not None else shards[0]

    def shard_latencies(self) -> tuple[LatencyStats, ...]:
        """A cluster's per-shard stats; empty for a plain policy."""
        return tuple(self._priced_shards()) if self._route is not None else ()


class RollingObserver(ReplayObserver):
    """Windowed time series (:class:`RollingMetrics`) from outcome counts.

    Windows are aligned to sequence numbers (window *i* covers
    ``[i*W, (i+1)*W)``); only the last window may be partial.  A window
    closes when the first request past it arrives, or at finalize.
    """

    __slots__ = ("_window", "_start", "_seq", "_counts", "_windows")

    def __init__(self, window: int):
        from repro.simulation.metrics import validate_rolling_window

        self._window = validate_rolling_window(window)
        self._start = 0
        self._seq = 0
        # [read_requests, read_hits, write_requests, write_hits, evictions]
        self._counts = [0, 0, 0, 0, 0]
        self._windows: list = []

    def _close(self, boundary: int) -> None:
        from repro.simulation.metrics import RollingWindow

        rr, rh, wr, wh, ev = self._counts
        self._windows.append(
            RollingWindow(
                start=self._start,
                requests=rr + wr,
                read_requests=rr,
                read_hits=rh,
                write_requests=wr,
                write_hits=wh,
                evictions=ev,
            )
        )
        self._counts = [0, 0, 0, 0, 0]
        self._start = boundary

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

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        # A chunk that straddles window boundaries is split here; each
        # segment is folded by column popcounts instead of a per-request
        # loop.
        window = self._window
        length = len(chunk)
        write = chunk.write
        hit = batch.hit
        offsets = batch.evicted_offsets
        seq_base = chunk.seq_base
        offset = 0
        while offset < length:
            seq = seq_base + offset
            boundary = seq - (seq % window)
            if boundary > self._start:
                self._close(boundary)
            take = min(window - (seq % window), length - offset)
            end = offset + take
            write_seg = write[offset:end]
            hit_seg = hit[offset:end]
            wr = int(_np.count_nonzero(write_seg))
            wh = int(_np.count_nonzero(hit_seg & write_seg))
            counts = self._counts
            counts[0] += take - wr
            counts[1] += int(_np.count_nonzero(hit_seg)) - wh
            counts[2] += wr
            counts[3] += wh
            counts[4] += int(offsets[end] - offsets[offset])
            offset = end
            self._seq = seq + take

    def finalize(self) -> "RollingMetrics":
        from repro.simulation.metrics import RollingMetrics

        windows = list(self._windows)
        if self._seq > self._start:
            rr, rh, wr, wh, ev = self._counts
            from repro.simulation.metrics import RollingWindow

            windows.append(
                RollingWindow(
                    start=self._start,
                    requests=rr + wr,
                    read_requests=rr,
                    read_hits=rh,
                    write_requests=wr,
                    write_hits=wh,
                    evictions=ev,
                )
            )
        return RollingMetrics(window=self._window, windows=tuple(windows))
