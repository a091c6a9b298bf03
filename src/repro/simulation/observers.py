"""Composable replay observers: all accounting, fed from one replay loop.

Policies are pure kernels (:mod:`repro.cache.base`): ``batch_access``
returns an :class:`~repro.cache.base.AccessOutcomeBatch` and mutates
nothing but replacement state.  Everything the simulation reports —
hit/miss statistics, per-shard breakdowns, a seek device's service-time
pricing, rolling time series — is an observer folding those batches,
attached by the single replay orchestrator
(:class:`~repro.simulation.engine.MultiPolicySimulator`).  A
position-independent device needs no observer of its own: the engine
prices it from the stats observers' hit/miss counts.

The observer contract (:class:`ReplayObserver`):

* :meth:`~ReplayObserver.on_batch` — fold one columnar chunk and its
  batched outcomes, in stream order; the only hook the replay loop calls.
  Chunks end wherever the source's blocks end, so an observer that
  accounts fixed windows of the stream splits a chunk that straddles one
  itself.
* :meth:`~ReplayObserver.finalize` — the accounting product.  Non-
  destructive: safe to call more than once.

Every observer accounts one whole replay, numbered from sequence number 0:
the engine never splits a stream across observers, so there is nothing to
merge.  Writing an observer: subclass :class:`ReplayObserver`, implement
``on_batch`` and ``finalize``, then attach instances via the simulators'
``observer_factories`` hook (``factory(policy)``).  Observers must not
call back into the policy and must not write into the chunk's or the
batch's columns: every pipeline of a pass is handed the same chunk, and
the next policy replays it.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import TYPE_CHECKING, Any

import numpy as _np

from repro.cache.base import CacheStats
from repro.simulation.cluster import is_cluster, routed_shards
from repro.simulation.costmodel import CostModel, LatencyStats, SeekWalk, running_sum

if TYPE_CHECKING:  # imported for type annotations only
    from repro.cache.base import AccessOutcomeBatch
    from repro.simulation.cluster import ShardedCache
    from repro.simulation.metrics import RollingMetrics, RollingWindow
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "ReplayObserver",
    "StatsObserver",
    "ShardStatsObserver",
    "CostObserver",
    "RollingObserver",
    "shard_observer_for",
]


class ReplayObserver(abc.ABC):
    """Protocol for accounting fed from the replay loop's outcome batches."""

    @abc.abstractmethod
    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        """Fold one columnar chunk of batched outcomes (request *i* of the
        chunk has outcome *i* of the batch)."""

    @abc.abstractmethod
    def finalize(self) -> object:
        """Return the accounting product (non-destructive)."""


class StatsObserver(ReplayObserver):
    """Reconstructs :class:`CacheStats` from the outcome batches.

    One counting rule for every policy: requests/hits split by read/write,
    one admission per admitted request, one bypass per bypassed request,
    and every evicted page an eviction.
    """

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        self._stats = CacheStats()

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        stats = self._stats
        write = chunk.write
        hit = batch.hit
        wr = int(_np.count_nonzero(write))
        wh = int(_np.count_nonzero(hit & write))
        stats.read_requests += len(chunk) - wr
        stats.read_hits += int(_np.count_nonzero(hit)) - wh
        stats.write_requests += wr
        stats.write_hits += wh
        stats.evictions += batch.eviction_count
        stats.admissions += int(_np.count_nonzero(batch.admitted))
        stats.bypasses += int(_np.count_nonzero(batch.bypassed))

    def finalize(self) -> CacheStats:
        return replace(self._stats)


#: Per 4-bit outcome code (write, hit, admitted and bypassed, from the
#: high bit down), whether a request of that code counts as a request, a
#: write, a hit, a write hit, an admission and a bypass: the columns of the
#: matrix that turns a shard's code counts into its counters.
_CODES = _np.arange(16)
_TALLIES = _np.stack(
    [_np.ones(16, _np.int64), _CODES >> 3 & 1, _CODES >> 2 & 1, _CODES >> 2 & _CODES >> 3 & 1,
     _CODES >> 1 & 1, _CODES & 1],
    axis=1,
)


def _bits(flags: Any) -> Any:
    """A bool column's bytes, as 0/1 ``uint8``."""
    return _np.asarray(flags, _np.bool_).view(_np.uint8)


class ShardStatsObserver(ReplayObserver):
    """Per-shard :class:`CacheStats` for sharded clusters.

    A cluster's batch carries the shard each request was routed to (its
    ``shard`` column, set by :meth:`~repro.simulation.cluster.ShardedCache
    .batch_access`), and the routed shard's outcome unchanged, so counting
    each request on its shard reconstructs what the shard's own accounting
    would report.  Each chunk is one ``bincount`` over (shard, outcome code)
    pairs, plus one over the shards weighted by evictions; the counters are
    derived from those counts at :meth:`finalize`.
    """

    __slots__ = ("_codes", "_evictions")

    def __init__(self, cluster: "ShardedCache"):
        shards = cluster.shard_count
        self._codes = _np.zeros(16 * shards, _np.int64)
        self._evictions = _np.zeros(shards, _np.int64)

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        ids = routed_shards(batch)
        key = ids << 4
        key |= (
            _bits(chunk.write) << 3
            | _bits(batch.hit) << 2
            | _bits(batch.admitted) << 1
            | _bits(batch.bypassed)
        )
        self._codes += _np.bincount(key, minlength=len(self._codes))
        self._evictions += _np.bincount(
            ids, weights=_np.diff(batch.evicted_offsets), minlength=len(self._evictions)
        ).astype(_np.int64)

    def finalize(self) -> tuple[CacheStats, ...]:
        tallies = (self._codes.reshape(-1, 16) @ _TALLIES).tolist()
        return tuple(
            CacheStats(
                read_requests=requests - writes,
                read_hits=hits - write_hits,
                write_requests=writes,
                write_hits=write_hits,
                evictions=evictions,
                admissions=admissions,
                bypasses=bypasses,
            )
            for (requests, writes, hits, write_hits, admissions, bypasses), evictions in zip(
                tallies, self._evictions.tolist()
            )
        )


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

    __slots__ = ("_model", "_walk", "_clustered", "_seeks", "_read_hits", "_writes")

    def __init__(self, model: CostModel, policy: object):
        self._model = model
        # A 1-shard cluster still reads its shard column and reports its
        # shard's stats.
        self._clustered = is_cluster(policy)
        shards = policy.shard_count if is_cluster(policy) else 1
        self._walk = SeekWalk(model, shards)
        #: Per shard: the reads and write seeks priced by the walk so far.
        self._seeks = [LatencyStats() for _ in range(shards)]
        self._read_hits = [0] * shards
        self._writes = [0] * shards

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        write = chunk.write
        hit = batch.hit
        ids = routed_shards(batch) if self._clustered else None
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
        return LatencyStats.merge_all(shards) if self._clustered else shards[0]

    def shard_latencies(self) -> tuple[LatencyStats, ...]:
        """A cluster's per-shard stats; empty for a plain policy."""
        return tuple(self._priced_shards()) if self._clustered else ()


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

    def _open_window(self) -> "RollingWindow":
        """The window being counted, as it stands."""
        from repro.simulation.metrics import RollingWindow

        rr, rh, wr, wh, ev = self._counts
        return RollingWindow(
            start=self._start,
            requests=rr + wr,
            read_requests=rr,
            read_hits=rh,
            write_requests=wr,
            write_hits=wh,
            evictions=ev,
        )

    def _close(self, boundary: int) -> None:
        self._windows.append(self._open_window())
        self._counts = [0, 0, 0, 0, 0]
        self._start = boundary

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
            windows.append(self._open_window())
        return RollingMetrics(window=self._window, windows=tuple(windows))
