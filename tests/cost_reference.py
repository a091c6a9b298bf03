"""The scalar service-time accumulators: the cost model's reference.

:mod:`repro.simulation.costmodel` prices a seek device's replay with one
column walk per chunk (:class:`~repro.simulation.costmodel.SeekWalk`) and
every other device from its hit/miss counts.  These are the per-request
accumulators that walk replaced: one :meth:`CostAccumulator.charge` per
``(request, hit)`` outcome in stream order, with the head position a
Python int, and :meth:`CostAccumulator.price` for the service time of one
event.  The cost-model tests, the queueing tests' reference queues and the
engine oracle's scalar replay price with them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.simulation.cluster import is_cluster
from repro.simulation.costmodel import CostModel, LatencyStats
from repro.simulation.request import RequestKind

from tests.observer_reference import reference_route

if TYPE_CHECKING:  # imported for type annotations only
    from repro.simulation.request import IORequest

__all__ = ["CostAccumulator", "ShardedCostAccumulator", "accumulator_for"]


def accumulator_for(model: CostModel, policy: object) -> "CostAccumulator | ShardedCostAccumulator":
    """The right accumulator for *policy*: per-shard heads for clusters.

    A sharded cluster on a seek device is a fleet of independently
    positioned devices; pricing its stream through one accumulator
    would walk a single head across all shards.  Clusters
    (:func:`~repro.simulation.cluster.is_cluster`) therefore get one
    sub-accumulator (head) per shard, with requests routed exactly as
    the cluster routes them.  Position-independent devices keep the
    plain accumulator — per-shard pricing is then derived analytically
    from the per-shard counts, which is exact.
    """
    if model.profile.position_dependent and is_cluster(policy):
        # Also for shards=1: the single sub-accumulator prices exactly
        # like the wrapped policy, preserving the cluster layer's
        # shards=1 bit-identity on every reporting surface.
        return ShardedCostAccumulator(model, reference_route(policy.router), policy.shard_count)
    return CostAccumulator(model)


class CostAccumulator:
    """Per-policy, per-run service-time accounting (one replay pass).

    The engine calls :meth:`charge` once per (request, hit) outcome, in
    stream order; :meth:`finalize` folds the constant-cost pricing classes
    into the histogram and returns the run's :class:`LatencyStats`.  Only
    seek devices pay per-request arithmetic beyond class counting — the
    head-position walk that makes HDD misses distance-dependent.
    """

    __slots__ = (
        "_model",
        "_read_kind",
        "_hit_us",
        "_miss_const_us",
        "_write_const_us",
        "_profile",
        "_writes_seek",
        "_position",
        "_read_hits",
        "_read_misses",
        "_writes",
        "_latency",
    )

    def __init__(self, model: CostModel):
        self._model = model
        self._read_kind = RequestKind.READ
        profile = model.profile
        self._profile = profile
        self._hit_us = profile.cache_hit_us
        # Position-independent devices price every miss identically, so the
        # hot path only counts classes; None switches on the per-request
        # seek-aware path.
        self._miss_const_us = (
            None if profile.position_dependent else profile.nominal_read_miss_us
        )
        self._writes_seek = profile.position_dependent and model.writes_touch_device
        self._write_const_us = model.write_cost_us
        self._position: int | None = None
        self._read_hits = 0
        self._read_misses = 0
        self._writes = 0
        self._latency = LatencyStats()

    def _seek_to(self, page: int) -> float:
        """Seek cost of moving the head to *page* (and leave it there).

        The first device access of a run has no known head position and is
        charged the expected random seek.
        """
        if self._position is None:
            seek_us = self._profile.nominal_seek_us
        else:
            seek_us = self._profile.seek_cost_us(abs(page - self._position))
        self._position = page
        return seek_us

    def charge(self, request: "IORequest", hit: bool) -> None:
        """Price one replayed request given its hit/miss outcome."""
        if request.kind is self._read_kind:
            if hit:
                self._read_hits += 1
            elif self._miss_const_us is not None:
                self._read_misses += 1
            else:
                profile = self._profile
                self._latency.record_read(
                    profile.read_base_us
                    + profile.read_transfer_us
                    + self._seek_to(request.page)
                )
        else:
            self._writes += 1
            if self._writes_seek:
                self._latency.total_write_us += self._seek_to(request.page)
        return None

    def price(self, request: "IORequest", hit: bool) -> float:
        """The service time (us) :meth:`charge` would record for this event.

        Same pricing rules, same seek-head walk (seek devices advance the
        head exactly as :meth:`charge` does), but nothing is accumulated —
        the caller owns the sample.  Interleaving ``price`` and ``charge``
        calls on one accumulator would double-walk the head, so each
        consumer owns its accumulator.
        """
        if request.kind is self._read_kind:
            if hit:
                return self._hit_us
            if self._miss_const_us is not None:
                return self._miss_const_us
            profile = self._profile
            return (
                profile.read_base_us
                + profile.read_transfer_us
                + self._seek_to(request.page)
            )
        if self._writes_seek:
            return self._write_const_us + self._seek_to(request.page)
        return self._write_const_us

    def finalize(self) -> LatencyStats:
        """Fold the class counters into the histogram and return the stats."""
        latency = self._latency
        if self._read_hits:
            latency.record_read(self._hit_us, self._read_hits)
            self._read_hits = 0
        if self._read_misses:
            latency.record_read(self._miss_const_us, self._read_misses)
            self._read_misses = 0
        if self._writes:
            latency.record_write(self._write_const_us, self._writes)
            self._writes = 0
        return latency

    def shard_latencies(self) -> tuple[LatencyStats, ...]:
        """Per-shard breakdown; empty for this single-device accumulator."""
        return ()


class ShardedCostAccumulator:
    """Seek-aware accounting for a sharded cluster: one head per shard.

    Each request is routed by *route*, a per-request reference route of
    the cluster's router (``tests/observer_reference.py``), to a per-shard
    :class:`CostAccumulator`, keeping every shard's seek head independent.
    :meth:`finalize` returns the merged fleet view — which is therefore
    *exactly* the sum of the per-shard breakdowns exposed by
    :meth:`shard_latencies` — priced with the same per-request seek walk as
    an unsharded policy, so unified-vs-cluster comparisons measure the
    topology, not the pricing method.
    """

    __slots__ = ("_route", "_shards", "_finalized")

    def __init__(
        self, model: CostModel, route: "Callable[[IORequest], int]", shard_count: int
    ):
        self._route = route
        self._shards = [CostAccumulator(model) for _ in range(shard_count)]
        self._finalized: tuple[LatencyStats, ...] | None = None

    def charge(self, request: "IORequest", hit: bool) -> None:
        self._shards[self._route(request)].charge(request, hit)

    def finalize(self) -> LatencyStats:
        self._finalized = tuple(shard.finalize() for shard in self._shards)
        return LatencyStats.merge_all(self._finalized)

    def shard_latencies(self) -> tuple[LatencyStats, ...]:
        """Per-shard latency (exact, per-request); call after :meth:`finalize`."""
        if self._finalized is None:
            raise RuntimeError("finalize() must run before shard_latencies()")
        return self._finalized
