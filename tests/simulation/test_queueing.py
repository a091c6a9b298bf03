"""Queueing-theory property tests for the open-loop simulation.

Two kinds of pinning:

* **closed forms** — the simulated queues must agree with textbook
  queueing theory where it applies: Little's law ``L = lambda W`` on a
  stationary Poisson stream, the M/D/1 mean wait
  ``Wq = rho s / (2 (1 - rho))``, exactly zero delay as the offered load
  vanishes, and pathwise-monotone delays in the offered load;
* **structural laws** — properties that hold for *every* stream, checked
  against independent in-test reference implementations: the Lindley
  recursion per shard (which is also what makes per-shard FCFS order
  checkable), work conservation (the drained ``N(t)`` integral equals the
  sojourn sum identically), and composition with sharded clusters.

Closed-form tolerances are calibrated, not guessed: the M/D/1 finite-run
bias at ``n = 40k`` requests is about -3% at ``rho = 0.3`` and ``-4%`` at
``rho = 0.6`` (it grows sharply toward saturation, which is why the test
stops at 0.6 with a 12% band).
"""

from __future__ import annotations

import pickle
from bisect import bisect_left
from collections import defaultdict
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.registry import create_policy
from repro.simulation.costmodel import HISTOGRAM_BUCKET_BOUNDS_US
from repro.simulation.observers import shard_observer_for
from repro.simulation.queueing import QueueingModel, QueueingObserver, QueueingStats
from repro.simulation.request import RequestKind, read_request, write_request
from repro.simulation.simulator import simulate
from repro.trace.columnar import ColumnarChunk
from repro.workloads.arrivals import PoissonArrivals

from tests.cost_reference import CostAccumulator
from tests.observer_reference import (
    HIT,
    MISS_ADMIT,
    batch_of,
    decode_outcomes,
    lift_outcome,
    reference_route,
)
from tests.strategies import request_streams

#: SSD pricing classes under write-through (see DEVICE_PROFILES["ssd"]):
#: the independent reference prices from these constants, not the cost model.
_READ_HIT_US = 5.0
_READ_MISS_US = 90.0
_WRITE_US = 90.0


def _reference_price_ns(request, hit: bool, write_policy: str = "write-through") -> int:
    """Service time on the production integer nanosecond clock; a
    write-back write is absorbed by the server cache at the hit cost."""
    if request.kind is RequestKind.READ:
        return 5_000 if hit else 90_000
    return 90_000 if write_policy == "write-through" else 5_000


def _quantize_ns(t_us: float) -> int:
    """The production arrival quantisation: microseconds -> integer ns."""
    return int(t_us * 1000.0 + 0.5)


class _NoPolicy:
    """Stand-in policy for driving a QueueingObserver directly (no router)."""


def _reference_stats(model: QueueingModel, stream, hits, shards, servers) -> QueueingStats:
    """Every field of the stats, from the naive per-shard Lindley loop run
    event by event: SSD service times from the documented constants (the
    read miss and the write-through write cost the same, so write-back
    tells the write class apart), seek devices priced by a fresh reference
    cost accumulator (head) per shard, histogram
    buckets by ``bisect_left`` over the bounds, and the ``N(t)`` area cut at
    the last arrival by subtracting each departure's overhang past it."""
    bounds = [_quantize_ns(bound) for bound in HISTOGRAM_BUCKET_BOUNDS_US]
    last_bucket = len(bounds) - 1
    delay_histogram = [0] * len(bounds)
    sojourn_histogram = [0] * len(bounds)
    pricers = [CostAccumulator(model.cost_model()) for _ in range(servers)]
    busy = [0] * servers
    arrivals = [_quantize_ns(t) for t in islice(model.arrivals.times(), len(stream))]
    departures = []
    total_delay = total_sojourn = total_service = 0
    for t, request, hit, shard in zip(arrivals, stream, hits, shards):
        if model.device == "ssd":
            service = _reference_price_ns(request, hit, model.write_policy)
        else:
            service = _quantize_ns(pricers[shard].price(request, hit))
        start = busy[shard] if busy[shard] > t else t
        busy[shard] = start + service
        departures.append(busy[shard])
        delay = start - t
        total_delay += delay
        total_sojourn += delay + service
        total_service += service
        delay_histogram[min(bisect_left(bounds, delay), last_bucket)] += 1
        sojourn_histogram[min(bisect_left(bounds, delay + service), last_bucket)] += 1
    last_arrival = arrivals[-1]
    return QueueingStats(
        request_count=len(stream),
        servers=servers,
        total_delay_ns=total_delay,
        total_sojourn_ns=total_sojourn,
        total_service_ns=total_service,
        first_arrival_ns=arrivals[0],
        last_arrival_ns=last_arrival,
        last_departure_ns=max(busy),
        area_at_last_arrival_ns=total_sojourn
        - sum(depart - last_arrival for depart in departures if depart > last_arrival),
        delay_histogram=delay_histogram,
        sojourn_histogram=sojourn_histogram,
    )


def _drive(model: QueueingModel, requests, outcomes):
    """Feed synthetic (request, outcome) pairs through a fresh observer."""
    observer = QueueingObserver(model, _NoPolicy())
    observer.on_batch(
        ColumnarChunk.from_requests(requests),
        batch_of(outcomes),
    )
    return observer


def _replay(policy, requests):
    """*policy*'s outcomes for *requests*, replayed as one chunk."""
    return decode_outcomes(policy.batch_access(ColumnarChunk.from_requests(requests)))


def _all_miss_reads(n: int):
    """Distinct pages: every read misses against any demand-filled cache."""
    return [read_request(page=page) for page in range(n)]


def _poisson_model(rate_rps: float, seed: int = 11, **kwargs) -> QueueingModel:
    return QueueingModel(arrivals=PoissonArrivals(rate_rps, seed=seed), **kwargs)


def _run_all_miss(n: int, rate_rps: float, **model_kwargs) -> QueueingStats:
    requests = _all_miss_reads(n)
    observer = _drive(
        _poisson_model(rate_rps, **model_kwargs), requests, [MISS_ADMIT] * n
    )
    return observer.finalize()


class TestClosedForms:
    @pytest.mark.slow
    def test_littles_law_stationary_poisson(self):
        """L = lambda W on a stationary all-miss Poisson stream.

        L is the time-average number in system (the ``N(t)`` area cut at
        the last arrival); lambda and W are measured from the same run.
        Exact only in the infinite horizon — at n=20k the edge effects are
        well under 1%.
        """
        service_s = _READ_MISS_US * 1e-6
        stats = _run_all_miss(20_000, rate_rps=0.6 / service_s)
        lam = stats.arrival_rate_rps * 1e-6  # requests per microsecond
        expected = lam * stats.mean_sojourn_us
        assert stats.mean_in_system == pytest.approx(expected, rel=0.01)

    @pytest.mark.slow
    @pytest.mark.parametrize("rho", [0.3, 0.6])
    def test_md1_mean_wait_matches_closed_form(self, rho):
        """M/D/1: Wq = rho s / (2 (1 - rho)) for deterministic service.

        An all-miss read stream on SSD is exactly M/D/1 (every service
        takes ``_READ_MISS_US``).  Finite runs bias a few percent low
        (the empty-queue start and the cut at the last arrival), so the
        band is 12% and rho stays well below saturation.
        """
        service_s = _READ_MISS_US * 1e-6
        stats = _run_all_miss(40_000, rate_rps=rho / service_s)
        expected_wq = rho * _READ_MISS_US / (2.0 * (1.0 - rho))
        assert stats.mean_queue_delay_us == pytest.approx(expected_wq, rel=0.12)
        assert stats.utilization == pytest.approx(rho, rel=0.05)
        # Sojourn = wait + deterministic service, by construction.
        assert stats.mean_sojourn_us == pytest.approx(
            stats.mean_queue_delay_us + _READ_MISS_US
        )

    def test_vanishing_load_has_exactly_zero_delay(self):
        """As the offered load vanishes, every request finds an idle
        server: queueing delay is *exactly* 0.0 — including the p99,
        which is what the leading zero histogram bucket guarantees."""
        stats = _run_all_miss(300, rate_rps=1.0)  # mean gap 1s >> 90us service
        assert stats.total_delay_us == 0.0
        assert stats.mean_queue_delay_us == 0.0
        assert stats.p50_queue_delay_us == 0.0
        assert stats.p99_queue_delay_us == 0.0
        assert stats.total_sojourn_us == pytest.approx(stats.total_service_us)

    def test_delays_pathwise_monotone_in_offered_load(self):
        """scaled() keeps the underlying uniforms, so each request's delay
        is monotone in the load factor pathwise — the saturation knee is
        exact, not a sampling artifact."""
        n = 2_000
        requests = _all_miss_reads(n)
        base = _poisson_model(0.3 / (_READ_MISS_US * 1e-6))
        previous = None
        for factor in (0.5, 1.0, 2.0, 4.0):
            stats = _drive(base.scaled(factor), requests, [MISS_ADMIT] * n).finalize()
            if previous is not None:
                assert stats.total_delay_us >= previous.total_delay_us
                assert stats.utilization >= previous.utilization - 1e-12
            previous = stats


#: Arrival rates spanning light load to past single-server saturation.
_RATES = st.sampled_from([500.0, 4_000.0, 9_000.0, 15_000.0])


@pytest.mark.property
class TestStructuralLaws:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams(max_size=200), rate=_RATES, seed=st.integers(0, 5))
    def test_single_shard_matches_naive_lindley(self, stream, rate, seed):
        """The observer's totals equal an explicit Lindley recursion priced
        from the documented SSD constants — for any stream and load.
        Integer event clock: the agreement is exact, not approximate."""
        policy = create_policy("LRU", capacity=8)
        outcomes = _replay(policy, stream)
        model = _poisson_model(rate, seed=seed)
        observer = _drive(model, stream, outcomes)
        stats = observer.finalize()

        busy = 0
        total_delay = total_sojourn = 0
        departures = []
        for t_us, request, outcome in zip(model.arrivals.times(), stream, outcomes):
            t = _quantize_ns(t_us)
            service = _reference_price_ns(request, outcome.hit)
            start = busy if busy > t else t
            busy = start + service
            departures.append(busy)
            total_delay += start - t
            total_sojourn += busy - t
        assert stats.request_count == len(stream)
        assert stats.total_delay_ns == total_delay
        assert stats.total_sojourn_ns == total_sojourn
        assert stats.last_departure_ns == departures[-1]
        # Single-server FCFS: departures leave in arrival order.
        assert departures == sorted(departures)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams(max_size=200), rate=_RATES, seed=st.integers(0, 5))
    def test_fifo_per_shard_in_a_cluster(self, stream, rate, seed):
        """Each shard of a hash-routed cluster is its own FCFS queue: the
        cluster's totals decompose exactly into per-shard Lindley
        recursions over the routed sub-streams, in sub-stream order."""
        cluster = create_policy("SHARDED", capacity=9, policy="LRU", shards=3)
        outcomes = _replay(cluster, stream)
        route = reference_route(cluster.router)
        routed = [route(request) for request in stream]
        model = _poisson_model(rate, seed=seed)
        observer = QueueingObserver(model, cluster)
        for seq, (request, outcome, shard) in enumerate(zip(stream, outcomes, routed)):
            observer.on_batch(*lift_outcome(shard, request, seq, outcome))
        stats = observer.finalize()

        busy: dict[int, int] = defaultdict(int)
        per_shard_departs: dict[int, list[int]] = defaultdict(list)
        total_delay = total_sojourn = 0
        for t_us, request, outcome, shard in zip(
            model.arrivals.times(), stream, outcomes, routed
        ):
            t = _quantize_ns(t_us)
            service = _reference_price_ns(request, outcome.hit)
            start = busy[shard] if busy[shard] > t else t
            busy[shard] = start + service
            per_shard_departs[shard].append(busy[shard])
            total_delay += start - t
            total_sojourn += busy[shard] - t
        assert stats.servers == 3
        assert stats.total_delay_ns == total_delay
        assert stats.total_sojourn_ns == total_sojourn
        for departs in per_shard_departs.values():
            assert departs == sorted(departs)
        if per_shard_departs:
            assert stats.last_departure_ns == max(
                departs[-1] for departs in per_shard_departs.values()
            )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams(max_size=200), rate=_RATES)
    def test_work_conservation_area_matches_event_sweep(self, stream, rate):
        """Little's-law numerator cross-check: the production
        ``area_at_last_arrival_ns`` (computed from the sojourn-sum identity
        minus the departure overhang) equals an *independent* event-sweep
        integral of ``N(t)`` — step through +1/-1 marks of a reference
        Lindley recursion and integrate the step function up to the last
        arrival.  Exact, for any stream and load."""
        policy = create_policy("LRU", capacity=8)
        outcomes = _replay(policy, stream)
        model = _poisson_model(rate)
        stats = _drive(model, stream, outcomes).finalize()

        busy = 0
        pairs: list[tuple[int, int]] = []  # (arrival_ns, departure_ns)
        for t_us, request, outcome in zip(model.arrivals.times(), stream, outcomes):
            t = _quantize_ns(t_us)
            service = _reference_price_ns(request, outcome.hit)
            busy = (busy if busy > t else t) + service
            pairs.append((t, busy))
        if pairs:
            last_arrival = pairs[-1][0]
            marks = sorted(
                [(t, 1) for t, _ in pairs] + [(depart, -1) for _, depart in pairs]
            )
            area = in_system = 0
            previous = 0
            for time_ns, delta in marks:
                clipped = time_ns if time_ns < last_arrival else last_arrival
                if clipped > previous:
                    area += in_system * (clipped - previous)
                    previous = clipped
                in_system += delta
            assert stats.area_at_last_arrival_ns == area
            assert stats.total_sojourn_ns == sum(d - t for t, d in pairs)
        assert stats.area_at_last_arrival_ns <= stats.total_sojourn_ns
        assert stats.first_arrival_us <= stats.last_arrival_us
        assert stats.last_departure_us >= stats.last_arrival_us
        assert 0.0 <= stats.utilization <= 1.0 + 1e-12
        assert sum(stats.delay_histogram) == stats.request_count
        assert sum(stats.sojourn_histogram) == stats.request_count

    @pytest.mark.parametrize("router", [None, "hash", "client"], ids=["plain", "hash", "client"])
    @pytest.mark.parametrize("device", ["ssd", "ssd-write-back", "hdd"])
    def test_kernel_pass_matches_the_per_event_reference(self, device, router):
        """The kernel's one Lindley pass at finalize is the per-event
        simulation: every field of the finalized stats — totals, arrivals,
        histograms, the cut area, the last departure — equals the naive
        reference, fed chunk by chunk at uneven boundaries, on
        constant-price and seek devices, unsharded and under both routers
        (each shard keeps its own server clock and, on HDD, its own head)."""
        clients = ("a", "b", "c")
        stream = [
            read_request(page=(seq * 7) % 101 + 1_000 * (seq % 3), client_id=clients[seq % 3])
            if seq % 4
            else write_request(page=seq % 13, client_id=clients[seq % 3])
            for seq in range(3_000)
        ]
        if router is None:
            policy = create_policy("LRU", capacity=60)
        else:
            policy = create_policy("SHARDED", capacity=60, policy="LRU", shards=4, router=router)
        if device == "hdd":
            model = _poisson_model(400.0, device="hdd", page_span=3_000)
        elif device == "ssd-write-back":
            model = _poisson_model(11_000.0, write_policy="write-back")
        else:
            model = _poisson_model(11_000.0)
        observer = QueueingObserver(model, policy)
        hits: list[bool] = []
        for base in range(0, len(stream), 700):  # uneven chunk boundaries
            chunk = ColumnarChunk.from_requests(stream[base : base + 700], base)
            batch = policy.batch_access(chunk)
            observer.on_batch(chunk, batch)
            hits.extend(batch.hit.tolist())
        stats = observer.finalize()

        # A fresh reference router assigns the client shards in the same
        # first-appearance order as the replay's.
        shards = list(map(reference_route(policy.router), stream)) if router else [0] * len(stream)
        servers = 4 if router else 1
        assert stats == _reference_stats(model, stream, hits, shards, servers)
        assert stats.total_delay_ns > 0
        assert 0 < sum(hits) < len(stream)


class TestComposition:
    def test_finalize_is_repeatable(self):
        observer = _drive(_poisson_model(8_000.0), _all_miss_reads(50), [MISS_ADMIT] * 50)
        first = observer.finalize()
        second = observer.finalize()
        assert first.as_dict() == second.as_dict()

    def test_sharded_single_shard_equals_plain_policy(self):
        """A 1-shard cluster is the unified cache: identical queueing."""
        stream = [read_request(page=(seq * 13) % 40) for seq in range(500)]
        model = _poisson_model(9_000.0)
        plain = simulate(create_policy("LRU", capacity=8), stream, queueing_model=model)
        sharded = simulate(
            create_policy("SHARDED", capacity=8, policy="LRU", shards=1),
            stream,
            queueing_model=model,
        )
        assert plain.queueing.as_dict() == sharded.queueing.as_dict()


class TestModelAndPlumbing:
    def test_model_validation(self):
        arrivals = PoissonArrivals(1_000.0)
        with pytest.raises(TypeError, match="ArrivalProcess"):
            QueueingModel(arrivals=1_000.0)
        with pytest.raises(ValueError, match="write policy"):
            QueueingModel(arrivals=arrivals, write_policy="write-around")
        with pytest.raises(ValueError, match="unknown device"):
            QueueingModel(arrivals=arrivals, device="floppy")

    def test_model_hashable_and_picklable(self):
        model = _poisson_model(3_000.0, device="nvme")
        assert hash(model) == hash(pickle.loads(pickle.dumps(model)))
        assert pickle.loads(pickle.dumps(model)) == model
        assert model.scaled(2.0) != model
        assert model.scaled(2.0).arrivals.mean_rate_rps == pytest.approx(6_000.0)

    def test_model_rejects_an_empty_page_span_when_built(self):
        """The page span is checked with the other cost-model parameters,
        when the model is built, and the error names it."""
        with pytest.raises(ValueError, match="page_span"):
            _poisson_model(1_000.0, device="hdd", page_span=0)

    def test_model_cost_model_round_trip(self):
        model = _poisson_model(1_000.0, device="hdd", page_span=512)
        cost = model.cost_model()
        assert cost.profile.name == "hdd"
        assert cost.profile.seek_span == 512

    def test_simulation_result_carries_queueing_columns(self):
        stream = _all_miss_reads(200)
        result = simulate(
            create_policy("LRU", capacity=8),
            stream,
            queueing_model=_poisson_model(9_000.0),
        )
        row = result.as_dict()
        for column in QueueingStats().report_columns():
            assert column in row
        assert row["utilization"] == result.queueing.utilization

    def test_observer_histograms_use_shared_buckets(self):
        stats = QueueingStats()
        assert len(stats.delay_histogram) == len(HISTOGRAM_BUCKET_BOUNDS_US)
        assert HISTOGRAM_BUCKET_BOUNDS_US[0] == 0.0

    def test_hits_price_cheaper_than_misses(self):
        """The queue consumes the cost model's pricing: an all-hit stream
        spends less server time than an all-miss one."""
        n = 300
        requests = _all_miss_reads(n)
        model = _poisson_model(5_000.0)
        hits = _drive(model, requests, [HIT] * n).finalize()
        misses = _drive(model, requests, [MISS_ADMIT] * n).finalize()
        assert hits.total_service_us == pytest.approx(n * _READ_HIT_US)
        assert misses.total_service_us == pytest.approx(n * _READ_MISS_US)
        assert hits.total_delay_us <= misses.total_delay_us

    def test_cluster_batch_without_shard_column_raises(self):
        """A cluster's observers read the shard ids off the batch and never
        route a chunk again, so a batch without them is an error."""
        stream = _all_miss_reads(10)
        chunk = ColumnarChunk.from_requests(stream)
        batch = batch_of([MISS_ADMIT] * 10)
        cluster = create_policy("SHARDED", capacity=9, policy="LRU", shards=3)
        with pytest.raises(ValueError, match="no shard column"):
            QueueingObserver(_poisson_model(1_000.0), cluster).on_batch(chunk, batch)
        with pytest.raises(ValueError, match="no shard column"):
            shard_observer_for(cluster).on_batch(chunk, batch)

    @pytest.mark.parametrize(
        "shard,message",
        [
            ([0, 2, 3, 1], r"shard id outside \[0, 3\)"),
            ([0, 2, -1, 1], r"shard id outside \[0, 3\)"),
            ([0, 2, 1], "differ in length"),
        ],
        ids=["past-the-last", "negative", "short"],
    )
    def test_malformed_shard_column_raises(self, shard, message):
        """The kernel indexes its servers with the shard ids, so an id out
        of range, or a column shorter than the chunk, is an error."""
        stream = _all_miss_reads(4)
        batch = batch_of([MISS_ADMIT] * 4)
        batch.shard = np.array(shard, np.int64)
        cluster = create_policy("SHARDED", capacity=9, policy="LRU", shards=3)
        observer = QueueingObserver(_poisson_model(1_000.0), cluster)
        observer.on_batch(ColumnarChunk.from_requests(stream), batch)
        with pytest.raises(ValueError, match=message):
            observer.finalize()
