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
exact and associative, so totals never depend on chunk boundaries, worker
counts, or whether the compiled pass below is taken — results are
bit-identical across processes and ``jobs=`` counts by construction, not
by accumulation-order discipline.

Two accounting identities replace per-event integral bookkeeping: the
fully drained number-in-system integral equals ``sum(sojourn_i)``
exactly, and the integral cut at the last arrival ``T`` (the ``L``
numerator of Little's law) is ``sum(sojourn_i) - sum(max(0, d_i - T))``
over departure times ``d_i`` — so the hot loop only records departures.

Position-independent replays (the whole default ``load`` sweep) bank their
columns and run the Lindley recursion of every shard in one pass of the C
kernel library (``queue_replay`` in ``repro/core/_queueing_kernel.c``) at
finalize, exact in ``int64``.  Seek devices run the scalar per-event
queues, which produce the same integers bit for bit on the configurations
both can serve.

It is packaged as a :class:`ReplayObserver` (:class:`QueueingObserver`):
the replay loop feeds it the outcome stream, it prices each outcome with
its **own** cost accumulators (one per shard, so seek devices keep one
head per shard exactly like :class:`~repro.simulation.costmodel
.ShardedCostAccumulator`) and never touches the policy or the requests —
attaching it cannot change hit/miss stats or service-time accounting.
Sharded clusters are re-routed with the cluster's own router, matching
:class:`~repro.simulation.observers.ShardStatsObserver`.  Observers of
one replay run share an :class:`arrival tape <_ArrivalTape>`: the engine
feeds every policy identical chunks in order, so the chunk's arrival
timestamps are drawn once and reused by all policies.  Every replay is
a whole stream numbered from 0 (every sweep cell runs inside one worker),
so the arrival clock and the queues both start at the stream's start.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Sequence

import numpy as _np

from repro.cache.base import AccessOutcomeBatch
from repro.core import kernel
from repro.simulation.costmodel import (
    HISTOGRAM_BUCKET_BOUNDS_US,
    WRITE_POLICIES,
    CostModel,
    DeviceProfile,
    make_device_profile,
)
from repro.simulation.cluster import HashRouter, _mix_pages, is_cluster
from repro.simulation.observers import ReplayObserver
from repro.simulation.request import RequestKind, read_request, write_request
from repro.trace.columnar import ColumnarChunk
from repro.workloads.arrivals import ArrivalProcess

if TYPE_CHECKING:  # imported for type annotations only
    from repro.cache.base import AccessOutcome, CachePolicy
    from repro.simulation.request import IORequest

__all__ = [
    "QueueingModel",
    "QueueingObserver",
    "QueueingStats",
]

_LAST_BUCKET = len(HISTOGRAM_BUCKET_BOUNDS_US) - 1
#: The shared bucket bounds on the integer nanosecond clock.  Strictly
#: increasing (the bounds grow 1.3x from 500ns), so bucketisation by
#: ``bisect_left`` over integers (the count of bounds below a value)
#: matches the microsecond convention.
_BOUNDS_NS: tuple[int, ...] = tuple(
    int(bound * 1000.0 + 0.5) for bound in HISTOGRAM_BUCKET_BOUNDS_US
)
_BOUNDS_NS_ARRAY = _np.array(_BOUNDS_NS, dtype=_np.int64)

#: Throwaway requests used to probe a device's constant price classes.
_PROBE_READ = read_request(page=0)
_PROBE_WRITE = write_request(page=0)


def _to_ns(latency_us: float) -> int:
    """A microsecond service/arrival time on the integer nanosecond clock."""
    return int(latency_us * 1000.0 + 0.5)


def _histogram_percentile(histogram: Sequence[int], count: int, quantile: float) -> float:
    """Bucket-bound quantile, same convention as ``LatencyStats``: the upper
    bound of the bucket the quantile falls in; 0.0 with nothing recorded."""
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    if count == 0:
        return 0.0
    rank = quantile * count
    cumulative = 0
    for index, bucket in enumerate(histogram):
        cumulative += bucket
        if cumulative >= rank and bucket:
            return HISTOGRAM_BUCKET_BOUNDS_US[index]
    return HISTOGRAM_BUCKET_BOUNDS_US[_LAST_BUCKET]


def _fresh_histogram() -> list[int]:
    return [0] * len(HISTOGRAM_BUCKET_BOUNDS_US)


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
    delay_histogram: list[int] = field(default_factory=_fresh_histogram)
    sojourn_histogram: list[int] = field(default_factory=_fresh_histogram)

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
        return _histogram_percentile(self.delay_histogram, self.request_count, quantile)

    def sojourn_percentile(self, quantile: float) -> float:
        return _histogram_percentile(
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
        if self.write_policy not in WRITE_POLICIES:
            raise ValueError(
                f"unknown write policy {self.write_policy!r}; available: {WRITE_POLICIES}"
            )
        make_device_profile(self.device)  # validate the device name eagerly

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
    """Per-run cache of each chunk's arrival/request columns.

    The replay engine feeds every policy the same chunks in sequence, so
    all :class:`QueueingObserver` instances of one run share one arrival
    clock: the first observer to see a chunk materialises its columns —
    arrival timestamps on the integer nanosecond clock, plus which
    requests are reads — and the rest reuse them.  Sequence-indexed
    arrival processes make the sharing exact; observers created without
    an explicit tape get a private one and behave identically.
    """

    __slots__ = (
        "_clock",
        "_next_seq",
        "_chunk_seq",
        "_arrivals_ns",
        "_reads",
        "_mixed_pages",
    )

    def __init__(self, arrivals: ArrivalProcess):
        self._clock = arrivals.clock()
        self._next_seq = 0
        self._chunk_seq = -1
        self._arrivals_ns: Any = None
        self._reads: Any = None
        self._mixed_pages = None

    def columns(self, chunk: "ColumnarChunk") -> tuple[Any, Any]:
        """The chunk's arrival timestamps (``int64`` ns, from the shared
        clock) and read flags (the negated write column)."""
        n = len(chunk)
        seq_base = chunk.seq_base
        if seq_base == self._chunk_seq and len(self._arrivals_ns) == n:
            return self._arrivals_ns, self._reads
        if seq_base != self._next_seq:
            raise ValueError(
                "observers sharing an arrival tape must consume identical "
                f"chunks in order (expected seq {self._next_seq}, got {seq_base})"
            )
        # Elementwise multiply/add then truncate: per value exactly
        # ``int(t * 1000.0 + 0.5)``, the scalar conversion of ``_to_ns``.
        times_us = self._clock(n)
        arrivals_ns = (times_us * 1000.0 + 0.5).astype(_np.int64)
        reads = ~chunk.write
        self._arrivals_ns = arrivals_ns
        self._reads = reads
        self._mixed_pages = None
        self._chunk_seq = seq_base
        self._next_seq = seq_base + n
        return arrivals_ns, reads

    def mixed_pages(self, chunk: "ColumnarChunk") -> Any:
        """The murmur-mixed page ids of the current chunk (``uint64``).

        :class:`~repro.simulation.cluster.HashRouter` routes via
        ``mix(page) % shards``; the mix is shard-count-independent, so one
        shared column serves every hash-routed cluster in the run.  The
        wrapping uint64 pipeline is exact — identical to the scalar
        ``_mix_page``."""
        if self._mixed_pages is None:
            self._mixed_pages = _mix_pages(chunk.page)
        return self._mixed_pages


class _SingleServerQueue:
    """One FCFS shard with a single server: scalar Lindley recursion."""

    __slots__ = ("busy_ns",)

    def __init__(self):
        self.busy_ns = 0

    def admit(self, t_ns: int, service_ns: int) -> int:
        """Admit an arrival at *t_ns* needing *service_ns*; return its
        queueing delay (ns)."""
        busy = self.busy_ns
        start = busy if busy > t_ns else t_ns
        self.busy_ns = start + service_ns
        return start - t_ns

    def last_departure_ns(self) -> int:
        return self.busy_ns


class QueueingObserver(ReplayObserver):
    """Feeds the outcome stream through per-shard FCFS queues.

    Per outcome, in stream order: read the arrival timestamp from the
    (possibly shared) arrival tape, price the service time, resolve the
    Lindley recursion against the routed shard's server, and record
    queueing delay + sojourn into the shared-bucket histograms.  Never
    mutates requests, outcomes or the policy.

    Position-independent devices price by outcome class, so their service
    times come from three probed constants; seek devices (HDD) price each
    event through this observer's own per-shard cost accumulators.
    Constant-price replays bank columns for the kernel library's Lindley
    pass at finalize; seek devices run the scalar queues per event.  Both
    produce identical integers.
    """

    __slots__ = (
        "_model",
        "_route",
        "_router",
        "_shard_count",
        "_tape",
        "_queues",
        "_pricers",
        "_service_ns",
        "_vector",
        "_arrival_chunks",
        "_read_chunks",
        "_hit_chunks",
        "_shard_chunks",
        "_departs",
        "_count",
        "_total_delay_ns",
        "_total_sojourn_ns",
        "_total_service_ns",
        "_first_ns",
        "_last_ns",
        "_delay_hist",
        "_sojourn_hist",
        "_finalized",
    )

    def __init__(
        self,
        model: QueueingModel,
        policy: "CachePolicy",
        tape: "_ArrivalTape | None" = None,
    ):
        self._model = model
        cost_model = model.cost_model()
        if is_cluster(policy):
            self._shard_count = policy.shard_count
            self._router = policy.router
            self._route = self._router.route
        else:
            self._shard_count = 1
            self._route = None
            self._router = None
        shard_count = self._shard_count
        if cost_model.profile.position_dependent:
            # Seek devices: one accumulator (head) per shard, priced per event.
            self._service_ns = None
            self._pricers = [cost_model.accumulator() for _ in range(shard_count)]
        else:
            # Three price classes; probing price() keeps the constants
            # byte-for-byte what per-event pricing would produce.
            probe = cost_model.accumulator()
            self._service_ns = (
                _to_ns(probe.price(_PROBE_READ, True)),
                _to_ns(probe.price(_PROBE_READ, False)),
                _to_ns(probe.price(_PROBE_WRITE, False)),
            )
            self._pricers = []
        self._vector = self._service_ns is not None
        if self._vector:
            self._queues = []
            self._delay_hist = None
            self._sojourn_hist = None
        else:
            self._queues = [_SingleServerQueue() for _ in range(shard_count)]
            self._delay_hist = _fresh_histogram()
            self._sojourn_hist = _fresh_histogram()
        self._arrival_chunks: list = []
        self._read_chunks: list = []
        self._hit_chunks: list = []
        self._shard_chunks: list = []
        self._tape = tape if tape is not None else _ArrivalTape(model.arrivals)
        self._departs: list = []
        self._count = 0
        self._total_delay_ns = 0
        self._total_sojourn_ns = 0
        self._total_service_ns = 0
        self._first_ns: int | None = None
        self._last_ns = 0
        self._finalized: QueueingStats | None = None

    def on_outcome(self, request: "IORequest", seq: int, outcome: "AccessOutcome") -> None:
        self.on_batch(
            ColumnarChunk.from_requests((request,), seq),
            AccessOutcomeBatch.from_outcomes((outcome,)),
        )

    def on_batch(self, chunk: "ColumnarChunk", batch: "AccessOutcomeBatch") -> None:
        if not len(chunk):
            return
        arrivals_ns, reads = self._tape.columns(chunk)
        if self._first_ns is None:
            self._first_ns = int(arrivals_ns[0])
        if self._vector:
            # Bank the columns for the finalize-time Lindley pass: the
            # integer recursion is chunk-boundary-free, so nothing per chunk
            # depends on queue state, and one pass over the concatenated
            # series replaces dozens of small-array numpy calls.  The
            # arrival/read/mixed-page columns are the tape's shared arrays.
            self._arrival_chunks.append(arrivals_ns)
            self._read_chunks.append(reads)
            self._hit_chunks.append(batch.hit)
            if self._route is not None:
                if type(self._router) is HashRouter:
                    self._shard_chunks.append(self._tape.mixed_pages(chunk))
                else:
                    self._shard_chunks.append(self._router.route_batch(chunk))
        else:
            self._chunk_scalar(
                chunk.requests(), batch.hit.tolist(), arrivals_ns.tolist()
            )
        self._count += len(chunk)
        self._last_ns = int(arrivals_ns[-1])

    # ------------------------------------------------------------ chunk paths
    def _chunk_scalar(
        self,
        requests: Sequence["IORequest"],
        hits: Sequence[bool],
        arrivals_ns: Sequence[int],
    ) -> None:
        """One chunk through the scalar queues, event by event (seek
        devices).  Same integers as the vector pass."""
        consts = self._service_ns
        if consts is not None:
            hit_ns, miss_ns, write_ns = consts
        route = self._route
        queues = self._queues
        pricers = self._pricers
        read = RequestKind.READ
        bounds = _BOUNDS_NS
        last_bucket = _LAST_BUCKET
        bisect = bisect_left
        delay_hist = self._delay_hist
        sojourn_hist = self._sojourn_hist
        departs_append = self._departs.append
        total_delay = 0
        total_sojourn = 0
        total_service = 0
        for t_ns, request, hit in zip(arrivals_ns, requests, hits):
            shard = route(request) if route is not None else 0
            if consts is not None:
                if request.kind is read:
                    service = hit_ns if hit else miss_ns
                else:
                    service = write_ns
            else:
                service = int(pricers[shard].price(request, hit) * 1000.0 + 0.5)
            delay = queues[shard].admit(t_ns, service)
            sojourn = delay + service
            departs_append(t_ns + sojourn)
            total_delay += delay
            total_sojourn += sojourn
            total_service += service
            index = bisect(bounds, delay)
            delay_hist[index if index < last_bucket else last_bucket] += 1
            index = bisect(bounds, sojourn)
            sojourn_hist[index if index < last_bucket else last_bucket] += 1
        self._total_delay_ns += total_delay
        self._total_sojourn_ns += total_sojourn
        self._total_service_ns += total_service

    # ---------------------------------------------------------- finalization
    def _replay_vector(self) -> tuple[int, int, list[int], list[int]]:
        """The banked chunks through every shard's Lindley recursion, whole,
        in one kernel call.

        Sets the three totals and returns ``(overhang past the last
        arrival, last departure, delay histogram, sojourn histogram)``.
        """
        np = _np
        arrivals = np.concatenate(self._arrival_chunks)
        # The kernel reads one byte per flag.
        reads = np.concatenate(self._read_chunks).astype(np.bool_, copy=False)
        hits = np.concatenate(self._hit_chunks).astype(np.bool_, copy=False)
        # Each request's shard is its key modulo the shard count: the hash
        # router's mixed pages (``route()`` is ``mix(page) % shards``),
        # banked from the shared tape, or the router's own shard ids.
        keys = None
        if self._route is not None:
            keys = np.concatenate(self._shard_chunks).astype(np.uint64, copy=False)
        n = len(arrivals)
        if len(reads) != n or len(hits) != n or (keys is not None and len(keys) != n):
            raise ValueError(f"banked columns differ in length from the {n} arrivals")
        service = np.array(self._service_ns, np.int64)
        totals = np.zeros(5, np.int64)
        delay_hist = np.zeros(len(_BOUNDS_NS), np.int64)
        sojourn_hist = np.zeros(len(_BOUNDS_NS), np.int64)
        address = kernel.address
        if kernel.load().queue_replay(
            n, address(arrivals), address(reads), address(hits),
            None if keys is None else address(keys), self._shard_count,
            address(service), address(_BOUNDS_NS_ARRAY), len(_BOUNDS_NS), self._last_ns,
            address(totals), address(delay_hist), address(sojourn_hist),
        ):
            raise MemoryError("queueing kernel: out of memory")
        total_delay, total_sojourn, total_service, overhang, last_departure = totals.tolist()
        self._total_delay_ns = total_delay
        self._total_sojourn_ns = total_sojourn
        self._total_service_ns = total_service
        return overhang, last_departure, delay_hist.tolist(), sojourn_hist.tolist()

    def finalize(self) -> QueueingStats:
        """Fold the replay into stats via the two accounting identities
        (cached, so finalize stays repeatable)."""
        if self._finalized is not None:
            return self._finalized
        delay_hist = self._delay_hist
        sojourn_hist = self._sojourn_hist
        if self._count:
            # Departures after the last arrival T contribute only [t_i, T]
            # to the N(t) integral cut at T: subtract their overhang from
            # the total-sojourn identity.
            last_arrival = self._last_ns
            if self._vector:
                overhang, last_departure, delay_hist, sojourn_hist = self._replay_vector()
            else:
                overhang = sum(
                    depart - last_arrival
                    for depart in self._departs
                    if depart > last_arrival
                )
                last_departure = max(queue.last_departure_ns() for queue in self._queues)
            area_at_last_arrival = self._total_sojourn_ns - overhang
        else:
            area_at_last_arrival = 0
            last_departure = 0
            if delay_hist is None:
                delay_hist = _fresh_histogram()
                sojourn_hist = _fresh_histogram()
        self._finalized = QueueingStats(
            request_count=self._count,
            servers=self._shard_count,
            total_delay_ns=self._total_delay_ns,
            total_sojourn_ns=self._total_sojourn_ns,
            total_service_ns=self._total_service_ns,
            first_arrival_ns=self._first_ns if self._first_ns is not None else 0,
            last_arrival_ns=self._last_ns,
            last_departure_ns=last_departure,
            area_at_last_arrival_ns=area_at_last_arrival,
            delay_histogram=[int(count) for count in delay_hist],
            sojourn_histogram=[int(count) for count in sojourn_hist],
        )
        return self._finalized
