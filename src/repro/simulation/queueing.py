"""Open-loop queueing simulation: latency under offered load.

The cost model (:mod:`repro.simulation.costmodel`) prices each request in
isolation — a *closed-loop* view with no contention.  This module adds the
*open-loop* view: requests arrive on their own clock (an
:class:`~repro.workloads.arrivals.ArrivalProcess`), each storage shard is
an FCFS queue in front of one server, and a request's latency is its
**sojourn time** — the queueing delay it spends waiting for the server
plus the service time the cost model already charges.  As offered load
approaches a shard's service capacity, delays blow up: the saturation
knee the ``load`` experiment sweeps.

The simulation is event-driven but needs no event loop: with FCFS service
and arrival-ordered admission, each arrival is resolved by the Lindley
recursion ``start = max(arrival, server_free)``.  All event arithmetic
runs on an **integer nanosecond** clock: integer addition and ``max`` are
exact and associative, so totals never depend on chunk boundaries or
worker counts — results are bit-identical across processes and ``jobs=``
counts by construction, not by accumulation-order discipline.

Two accounting identities replace per-event integral bookkeeping: the
fully drained number-in-system integral equals ``sum(sojourn_i)``
exactly, and the integral cut at the last arrival ``T`` (the ``L``
numerator of Little's law) is ``sum(sojourn_i) - sum(max(0, d_i - T))``
over departure times ``d_i`` — so the hot loop only records departures.

The recursion has one implementation: the C kernel library's
``queue_replay`` (``repro/core/_queueing_kernel.c``), which runs every
shard's queue in one pass at finalize, exact in ``int64``, on every device.
Per chunk the observer banks only columns the replay already made: the
batch's hit column, the chunk's write column, the shard ids a cluster
routed the chunk with (the batch's ``shard`` column) and, on seek devices,
the service times its own :class:`~repro.simulation.costmodel.SeekWalk`
prices from those columns in stream order.

It is packaged as a :class:`ReplayObserver` (:class:`QueueingObserver`):
the replay loop feeds it each chunk's outcome batch, it prices each
request with the cost model's rules (on seek devices with its **own**
heads, one per shard, exactly like the cost observer's) and never touches
the policy or the columns it is handed — attaching it cannot change
hit/miss stats or service-time accounting.
Every arrival process is a function of the request index, so the arrival
column is drawn once, at finalize, from an :class:`arrival tape
<_ArrivalTape>` that all observers of one model in one replay pass share.
Every replay is a whole stream numbered from 0 (every sweep cell runs
inside one worker), so the arrival clock and the queues both start at the
stream's start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as _np

from repro.core import kernel
from repro.simulation.costmodel import (
    HISTOGRAM_BUCKET_BOUNDS_US,
    CostModel,
    DeviceProfile,
    SeekWalk,
    empty_histogram,
    histogram_percentile,
)
from repro.simulation.cluster import is_cluster, routed_shards
from repro.simulation.observers import ReplayObserver
from repro.workloads.arrivals import ArrivalProcess

if TYPE_CHECKING:  # imported for type annotations only
    from repro.cache.base import AccessOutcomeBatch, CachePolicy
    from repro.trace.columnar import ColumnarChunk

__all__ = [
    "QueueingModel",
    "QueueingObserver",
    "QueueingStats",
]

#: The shared bucket bounds on the integer nanosecond clock.  Strictly
#: increasing (the bounds grow 1.3x from 500ns), so the kernel's bucket —
#: the count of bounds below a value — matches the microsecond convention.
_BOUNDS_NS = _np.array(
    [int(bound * 1000.0 + 0.5) for bound in HISTOGRAM_BUCKET_BOUNDS_US], _np.int64
)


def _to_ns(latency_us: float) -> int:
    """A microsecond service/arrival time on the integer nanosecond clock."""
    return int(latency_us * 1000.0 + 0.5)


@dataclass
class QueueingStats:
    """Queueing accounting for one simulation run of one policy.

    Times are integer nanoseconds on the arrival clock (0 = stream start);
    every reporting accessor converts to microseconds.  ``servers`` is the
    fleet total: one server per shard.  The two histograms share
    the cost model's bucketisation
    (:data:`~repro.simulation.costmodel.HISTOGRAM_BUCKET_BOUNDS_US`),
    whose leading exact-zero bucket keeps "no queueing" reporting as 0.0.

    The fully drained number-in-system integral is identically
    ``total_sojourn_ns`` (work conservation — every request contributes
    exactly its sojourn to the area under ``N(t)``);
    ``area_at_last_arrival_ns`` is the same integral cut at the last
    arrival, the ``L`` numerator of Little's law over the observed window.
    """

    request_count: int = 0
    servers: int = 1
    total_delay_ns: int = 0
    total_sojourn_ns: int = 0
    total_service_ns: int = 0
    first_arrival_ns: int = 0
    last_arrival_ns: int = 0
    last_departure_ns: int = 0
    area_at_last_arrival_ns: int = 0
    delay_histogram: list[int] = field(default_factory=empty_histogram)
    sojourn_histogram: list[int] = field(default_factory=empty_histogram)

    # ------------------------------------------------------------- accessors
    @property
    def total_delay_us(self) -> float:
        return self.total_delay_ns / 1000.0

    @property
    def total_sojourn_us(self) -> float:
        return self.total_sojourn_ns / 1000.0

    @property
    def total_service_us(self) -> float:
        return self.total_service_ns / 1000.0

    @property
    def first_arrival_us(self) -> float:
        return self.first_arrival_ns / 1000.0

    @property
    def last_arrival_us(self) -> float:
        return self.last_arrival_ns / 1000.0

    @property
    def last_departure_us(self) -> float:
        return self.last_departure_ns / 1000.0

    @property
    def mean_queue_delay_us(self) -> float:
        if self.request_count == 0:
            return 0.0
        return self.total_delay_ns / self.request_count / 1000.0

    @property
    def mean_sojourn_us(self) -> float:
        if self.request_count == 0:
            return 0.0
        return self.total_sojourn_ns / self.request_count / 1000.0

    @property
    def mean_service_us(self) -> float:
        if self.request_count == 0:
            return 0.0
        return self.total_service_ns / self.request_count / 1000.0

    def delay_percentile(self, quantile: float) -> float:
        return histogram_percentile(self.delay_histogram, self.request_count, quantile)

    def sojourn_percentile(self, quantile: float) -> float:
        return histogram_percentile(
            self.sojourn_histogram, self.request_count, quantile
        )

    @property
    def p50_queue_delay_us(self) -> float:
        return self.delay_percentile(0.50)

    @property
    def p99_queue_delay_us(self) -> float:
        return self.delay_percentile(0.99)

    @property
    def p50_sojourn_us(self) -> float:
        return self.sojourn_percentile(0.50)

    @property
    def p99_sojourn_us(self) -> float:
        return self.sojourn_percentile(0.99)

    @property
    def arrival_rate_rps(self) -> float:
        """Measured arrival rate over the observed window (requests/second)."""
        if self.request_count == 0 or self.last_arrival_ns <= 0:
            return 0.0
        return self.request_count / self.last_arrival_ns * 1e9

    @property
    def utilization(self) -> float:
        """Mean fraction of the fleet's servers busy until the last departure."""
        if self.request_count == 0 or self.last_departure_ns <= 0:
            return 0.0
        return self.total_service_ns / (self.servers * self.last_departure_ns)

    @property
    def mean_in_system(self) -> float:
        """Time-average number of requests in the system up to the last
        arrival — the ``L`` of Little's law (``L = lambda W``)."""
        if self.request_count == 0 or self.last_arrival_ns <= 0:
            return 0.0
        return self.area_at_last_arrival_ns / self.last_arrival_ns

    def report_columns(self) -> dict:
        """The queueing columns every row-level surface emits, next to the
        cost model's service-time columns."""
        return {
            "arrival_rate_rps": self.arrival_rate_rps,
            "mean_queue_delay_us": self.mean_queue_delay_us,
            "p50_queue_delay_us": self.p50_queue_delay_us,
            "p99_queue_delay_us": self.p99_queue_delay_us,
            "p50_sojourn_us": self.p50_sojourn_us,
            "p99_sojourn_us": self.p99_sojourn_us,
            "utilization": self.utilization,
        }

    def as_dict(self) -> dict:
        row = self.report_columns()
        row["requests"] = self.request_count
        row["servers"] = self.servers
        row["mean_sojourn_us"] = self.mean_sojourn_us
        row["mean_service_us"] = self.mean_service_us
        row["last_departure_us"] = self.last_departure_us
        return row


@dataclass(frozen=True)
class QueueingModel:
    """Picklable, hashable configuration of one open-loop queueing run.

    Carries the arrival process plus the cost-model *parameters* (not a
    :class:`CostModel` instance — those are mutable), so sweep cells can
    hash and ship it to worker processes exactly like a
    :class:`~repro.trace.cache.TraceSpec`.  Each shard of a sharded
    cluster gets one server and its own device (and, for seek devices, its
    own head); an unsharded policy is one shard.
    """

    arrivals: ArrivalProcess
    device: str | DeviceProfile = "ssd"
    write_policy: str = "write-through"
    page_span: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.arrivals, ArrivalProcess):
            raise TypeError(
                f"arrivals must be an ArrivalProcess, got {type(self.arrivals).__name__}"
            )
        self.cost_model()  # the device, write policy and page span, checked now

    def cost_model(self) -> CostModel:
        """A fresh service-time pricer with this model's parameters."""
        return CostModel(
            device=self.device,
            write_policy=self.write_policy,
            page_span=self.page_span,
        )

    def scaled(self, factor: float) -> "QueueingModel":
        """The same model with the offered load dialed by *factor*."""
        return replace(self, arrivals=self.arrivals.scaled(factor))

    def tape(self) -> "_ArrivalTape":
        """An arrival tape all observers of one replay run should share."""
        return _ArrivalTape(self.arrivals)

    def observer_for(
        self, policy: "CachePolicy", tape: "_ArrivalTape | None" = None
    ) -> "QueueingObserver":
        return QueueingObserver(self, policy, tape=tape)



class _ArrivalTape:
    """The stream's arrival column on the integer nanosecond clock, memoised.

    Every arrival process is a function of the request index, so one
    column serves every :class:`QueueingObserver` of a model in one replay
    pass: the engine hands them one tape, the first to finalize draws the
    column, and the rest read it.  An observer created without a tape gets
    a private one and behaves identically.
    """

    __slots__ = ("_clock", "_arrivals_ns")

    def __init__(self, arrivals: ArrivalProcess):
        self._clock = arrivals.clock()
        self._arrivals_ns: Any = _np.zeros(0, _np.int64)

    def arrivals_ns(self, n: int) -> Any:
        """The arrival times (``int64`` ns) of requests ``0 .. n-1``, drawing
        whatever is missing from where the clock's previous draw stopped."""
        missing = n - len(self._arrivals_ns)
        if missing > 0:
            # Elementwise multiply/add then truncate: per value exactly
            # ``int(t * 1000.0 + 0.5)``, the scalar conversion of ``_to_ns``.
            drawn = (self._clock(missing) * 1000.0 + 0.5).astype(_np.int64)
            self._arrivals_ns = _np.concatenate((self._arrivals_ns, drawn))
        return self._arrivals_ns[:n]


class QueueingObserver(ReplayObserver):
    """Feeds the outcome batches through per-shard FCFS queues.

    Per chunk it banks what the kernel pass reads: the write and hit
    columns, a cluster's shard ids and, on seek devices, each request's
    service time.  At finalize it reads the stream's arrival column from
    the (possibly shared) arrival tape and runs every shard's Lindley
    recursion, the totals and both histograms in one ``queue_replay``
    call.  Never mutates the chunk, the batch or the policy.

    Position-independent devices price by outcome class, so their service
    times are the model's three class prices (read hit, read miss, write),
    which the kernel picks per request.  Seek devices (HDD) price each
    request in stream order with this observer's own
    :class:`~repro.simulation.costmodel.SeekWalk`, one head per shard.
    """

    __slots__ = (
        "_clustered",
        "_shard_count",
        "_tape",
        "_walk",
        "_classes_ns",
        "_write_chunks",
        "_hit_chunks",
        "_shard_chunks",
        "_service_chunks",
        "_finalized",
    )

    def __init__(
        self,
        model: QueueingModel,
        policy: "CachePolicy",
        tape: "_ArrivalTape | None" = None,
    ):
        cost_model = model.cost_model()
        profile = cost_model.profile
        self._clustered = is_cluster(policy)
        self._shard_count = policy.shard_count if is_cluster(policy) else 1
        self._walk: SeekWalk | None = None
        self._classes_ns: Any = None
        if profile.position_dependent:
            self._walk = SeekWalk(cost_model, self._shard_count)
        else:
            prices = (
                profile.cache_hit_us, profile.nominal_read_miss_us, cost_model.write_cost_us
            )
            self._classes_ns = _np.array([_to_ns(price) for price in prices], _np.int64)
        self._tape = tape if tape is not None else _ArrivalTape(model.arrivals)
        self._write_chunks: list = []
        self._hit_chunks: list = []
        self._shard_chunks: list = []
        self._service_chunks: list = []
        self._finalized: QueueingStats | None = None

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        if not len(chunk):
            return
        self._write_chunks.append(chunk.write)
        self._hit_chunks.append(batch.hit)
        ids: Any = None
        if self._clustered:
            ids = routed_shards(batch)
            self._shard_chunks.append(ids)
        if self._walk is not None:
            service = self._walk.service_us(chunk.page, chunk.write, batch.hit, ids)
            # Elementwise, exactly ``_to_ns`` of each price.
            self._service_chunks.append((service * 1000.0 + 0.5).astype(_np.int64))

    def finalize(self) -> QueueingStats:
        """Run the banked stream through every shard's queue and fold it
        into stats via the two accounting identities (cached, so finalize
        stays repeatable)."""
        if self._finalized is not None:
            return self._finalized
        if not self._hit_chunks:
            self._finalized = QueueingStats(servers=self._shard_count)
            return self._finalized
        np = _np
        # The kernel reads one byte per flag.
        writes = np.concatenate(self._write_chunks).astype(np.bool_, copy=False)
        hits = np.concatenate(self._hit_chunks).astype(np.bool_, copy=False)
        n = len(hits)
        arrivals = self._tape.arrivals_ns(n)
        last_arrival = int(arrivals[-1])
        shards: Any = None
        service: Any = None
        if self._clustered:
            shards = np.concatenate(self._shard_chunks).astype(np.int64, copy=False)
        if self._walk is not None:
            service = np.concatenate(self._service_chunks)
        # The kernel reads n values of every column it is given.
        if len(writes) != n or any(
            column is not None and len(column) != n for column in (shards, service)
        ):
            raise ValueError(f"banked columns differ in length from the {n} outcomes")
        totals = np.zeros(5, np.int64)
        delay_hist = np.zeros(len(_BOUNDS_NS), np.int64)
        sojourn_hist = np.zeros(len(_BOUNDS_NS), np.int64)
        address = kernel.address

        def optional(column: Any) -> int | None:
            return None if column is None else address(column)

        status = kernel.load().queue_replay(
            n, address(arrivals), address(writes), address(hits), optional(shards),
            self._shard_count, optional(service), optional(self._classes_ns),
            address(_BOUNDS_NS), len(_BOUNDS_NS), last_arrival,
            address(totals), address(delay_hist), address(sojourn_hist),
        )
        if status == -1:
            raise MemoryError("queueing kernel: out of memory")
        if status:
            raise ValueError(
                f"queueing kernel: a shard id outside [0, {self._shard_count})"
            )
        total_delay, total_sojourn, total_service, overhang, last_departure = totals.tolist()
        self._finalized = QueueingStats(
            request_count=n,
            servers=self._shard_count,
            total_delay_ns=total_delay,
            total_sojourn_ns=total_sojourn,
            total_service_ns=total_service,
            first_arrival_ns=int(arrivals[0]),
            last_arrival_ns=last_arrival,
            last_departure_ns=last_departure,
            # Departures after the last arrival T contribute only [t_i, T]
            # to the N(t) integral cut at T: subtract their overhang from
            # the total-sojourn identity.
            area_at_last_arrival_ns=total_sojourn - overhang,
            delay_histogram=delay_hist.tolist(),
            sojourn_histogram=sojourn_hist.tolist(),
        )
        return self._finalized
