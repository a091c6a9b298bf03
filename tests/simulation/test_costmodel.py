"""Tests for the service-time cost model and its engine integration."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import AccessOutcomeBatch, CacheStats
from repro.cache.lru import LRUPolicy
from repro.simulation.cluster import ShardedCache
from repro.simulation.costmodel import (
    DEVICE_PROFILES,
    HISTOGRAM_BUCKET_BOUNDS_US,
    CostModel,
    DeviceProfile,
    LatencyStats,
    SeekWalk,
    make_device_profile,
)
from repro.simulation.engine import MultiPolicySimulator, ParallelSweepRunner, PolicySpec, SweepCell
from repro.simulation.observers import CostObserver
from repro.simulation.simulator import CacheSimulator, simulate
from repro.trace.columnar import ColumnarChunk

from tests.conftest import rd, wr
from tests.cost_reference import CostAccumulator, ShardedCostAccumulator
from tests.observer_reference import record_outcome, reference_route
from tests.policy_reference import LRUPolicy as ReferenceLRU


def small_trace(pages: int = 40, repeats: int = 6) -> list:
    """A read/write mix with re-references, so every pricing class occurs."""
    requests = []
    for _ in range(repeats):
        for page in range(pages):
            requests.append(rd(page))
        for page in range(0, pages, 3):
            requests.append(wr(page))
    return requests


class TestDeviceProfiles:
    def test_stock_profiles_are_ordered_by_speed(self):
        hdd, ssd, nvme = (
            DEVICE_PROFILES[name].nominal_read_miss_us for name in ("hdd", "ssd", "nvme")
        )
        assert hdd > ssd > nvme

    def test_only_hdd_is_position_dependent(self):
        assert DEVICE_PROFILES["hdd"].position_dependent
        assert not DEVICE_PROFILES["ssd"].position_dependent
        assert not DEVICE_PROFILES["nvme"].position_dependent

    def test_seek_cost_grows_with_distance_and_saturates(self):
        profile = DEVICE_PROFILES["hdd"]
        near = profile.seek_cost_us(10)
        far = profile.seek_cost_us(profile.seek_span // 2)
        full = profile.seek_cost_us(profile.seek_span)
        beyond = profile.seek_cost_us(profile.seek_span * 10)
        assert 0.0 < near < far < full == beyond == profile.seek_us
        assert profile.seek_cost_us(0) == 0.0

    def test_make_device_profile_passes_a_profile_through(self):
        custom = DeviceProfile(name="custom", cache_hit_us=1.0, read_base_us=40.0,
                               read_transfer_us=1.0, write_us=1.0)
        assert make_device_profile(custom) is custom
        assert make_device_profile("ssd") is DEVICE_PROFILES["ssd"]

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown device"):
            make_device_profile("floppy")

    def test_negative_timings_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="bad", cache_hit_us=-1.0, read_base_us=1.0,
                          read_transfer_us=1.0, write_us=1.0)

    def test_unknown_write_policy_rejected(self):
        with pytest.raises(ValueError, match="write policy"):
            CostModel("ssd", write_policy="write-around")


class TestLatencyStats:
    def test_percentiles_come_from_fixed_buckets(self):
        stats = LatencyStats()
        stats.record_read(5.0, count=99)
        stats.record_read(5000.0, count=1)
        assert stats.read_count == 100
        # p50 falls in the 5us class, p99 still within the cheap class,
        # p100 in the expensive one; bounds are bucket upper bounds.
        assert stats.p50_read_us >= 5.0
        assert stats.p50_read_us == stats.read_percentile(0.99)
        assert stats.read_percentile(1.0) >= 5000.0

    def test_percentile_validates_quantile(self):
        with pytest.raises(ValueError):
            LatencyStats().read_percentile(1.5)

    def test_empty_stats_report_zero(self):
        stats = LatencyStats()
        assert stats.mean_read_us == 0.0
        assert stats.p99_read_us == 0.0
        assert stats.throughput_rps == 0.0

    def test_merge_is_bucketwise_addition(self):
        a, b = LatencyStats(), LatencyStats()
        a.record_read(5.0, count=10)
        a.record_write(90.0, count=2)
        b.record_read(5000.0, count=3)
        merged = a.merge(b)
        assert merged.read_count == 13
        assert merged.write_count == 2
        assert merged.total_read_us == pytest.approx(50.0 + 15000.0)
        assert sum(merged.read_histogram) == 13
        assert len(merged.read_histogram) == len(HISTOGRAM_BUCKET_BOUNDS_US)

    def test_throughput_is_requests_over_busy_time(self):
        stats = LatencyStats()
        stats.record_read(1000.0, count=500)  # 0.5 s busy
        stats.record_write(1000.0, count=500)  # 0.5 s busy
        assert stats.throughput_rps == pytest.approx(1000.0)

    def test_zero_latency_reads_report_exactly_zero_percentiles(self):
        """Regression: the histogram's leading bucket is the exact-zero
        class.  Before it existed, a 0.0us recording landed in the first
        geometric bucket and every percentile reported its positive upper
        bound — 'no latency' showed up as 0.5us."""
        stats = LatencyStats()
        stats.record_read(0.0, count=50)
        assert HISTOGRAM_BUCKET_BOUNDS_US[0] == 0.0
        assert stats.read_histogram[0] == 50
        assert stats.p50_read_us == 0.0
        assert stats.p99_read_us == 0.0
        assert stats.read_percentile(1.0) == 0.0
        # Any positive latency still lands in a positive-bound bucket.
        stats.record_read(0.001, count=1)
        assert stats.read_percentile(1.0) > 0.0

    def test_empty_report_columns_are_all_zero(self):
        columns = LatencyStats().report_columns()
        assert set(columns) == {
            "mean_read_latency_us",
            "p50_read_latency_us",
            "p99_read_latency_us",
            "modeled_throughput_rps",
        }
        assert all(value == 0.0 for value in columns.values())

    def test_merge_rejects_mismatched_histogram_lengths(self):
        """Regression: merging stats built against different bucketisations
        used to silently zip-truncate, losing tail counts."""
        a, b = LatencyStats(), LatencyStats()
        b.read_histogram = b.read_histogram + [0]
        with pytest.raises(ValueError, match="histogram"):
            a.merge(b)


class TestPricing:
    def test_write_back_absorbs_writes_at_cache_speed(self):
        through = CostModel("ssd", write_policy="write-through")
        back = CostModel("ssd", write_policy="write-back")
        stats = CacheStats(read_requests=10, read_hits=5, write_requests=10, write_hits=2)
        assert through.latency_from_stats(stats).total_write_us == pytest.approx(
            10 * DEVICE_PROFILES["ssd"].write_us
        )
        assert back.latency_from_stats(stats).total_write_us == pytest.approx(
            10 * DEVICE_PROFILES["ssd"].cache_hit_us
        )
        # Read pricing is independent of the write variant.
        assert (
            through.latency_from_stats(stats).total_read_us
            == back.latency_from_stats(stats).total_read_us
        )

    def test_higher_hit_ratio_means_lower_mean_latency(self):
        model = CostModel("ssd")
        cold = model.latency_from_stats(CacheStats(read_requests=100, read_hits=10))
        warm = model.latency_from_stats(CacheStats(read_requests=100, read_hits=90))
        assert warm.mean_read_us < cold.mean_read_us

    def test_cost_model_is_picklable(self):
        model = CostModel("hdd", write_policy="write-back", page_span=10_000)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.profile == model.profile
        assert clone.write_policy == model.write_policy


class TestAccumulator:
    def test_matches_analytic_derivation_for_position_independent_devices(self):
        # For SSD/NVMe every pricing class has one constant cost, so the
        # per-request accumulator must equal pricing the final counts.
        for device in ("ssd", "nvme"):
            model = CostModel(device)
            accumulator = CostAccumulator(model)
            policy = ReferenceLRU(capacity=10)
            stats = CacheStats()
            for seq, request in enumerate(small_trace()):
                outcome = policy.access(request, seq)
                accumulator.charge(request, outcome.hit)
                record_outcome(stats, request, outcome)
            latency = accumulator.finalize()
            assert latency.as_dict() == model.latency_from_stats(stats).as_dict()

    def test_price_matches_charge_for_every_pricing_class(self):
        """``price`` returns exactly what ``charge`` accumulates — same
        rules, same seek-head walk — totalled over a mixed stream on a
        seek device (the hardest case: stateful head)."""
        from repro.simulation.request import read_request, write_request

        model = CostModel("hdd", page_span=256)
        requests = [
            (read_request(page=(seq * 37) % 200), seq % 3 == 0)
            for seq in range(40)
        ] + [(write_request(page=seq * 11 % 200), False) for seq in range(10)]
        pricer, recorder = CostAccumulator(model), CostAccumulator(model)
        priced_total = 0.0
        for request, hit in requests:
            priced_total += pricer.price(request, hit)
            recorder.charge(request, hit)
        assert priced_total == pytest.approx(recorder.finalize().total_us)

    def test_price_does_not_accumulate(self):
        from repro.simulation.request import read_request

        accumulator = CostAccumulator(CostModel("ssd"))
        assert accumulator.price(read_request(page=3), hit=False) == pytest.approx(90.0)
        assert accumulator.price(read_request(page=3), hit=True) == pytest.approx(5.0)
        stats = accumulator.finalize()
        assert stats.request_count == 0
        assert stats.total_us == 0.0

    def test_hdd_seeks_depend_on_access_pattern(self):
        model = CostModel("hdd", page_span=10_000)
        # Same class counts, different head travel: all-misses sequential
        # vs. all-misses alternating between the ends of the span.
        sequential = [rd(page) for page in range(200)]
        jumping = [rd(0 if index % 2 else 9_999) for index in range(200)]

        def total_read_us(requests):
            accumulator = CostAccumulator(model)
            policy = ReferenceLRU(capacity=1)
            for seq, request in enumerate(requests):
                accumulator.charge(request, policy.access(request, seq))
            return accumulator.finalize().total_read_us

        assert total_read_us(jumping) > total_read_us(sequential)


class TestEngineIntegration:
    def test_cost_model_off_leaves_results_unpriced(self):
        results = MultiPolicySimulator([LRUPolicy(capacity=10)]).run(small_trace())
        assert results[0].latency is None
        assert results[0].shard_latency == ()
        assert results[0].mean_read_latency_us == 0.0
        assert results[0].hottest_shard_penalty == 1.0

    def test_engine_and_simulator_price_identically(self):
        trace = small_trace()
        model = CostModel("hdd", page_span=1_000)
        engine_result = MultiPolicySimulator(
            [LRUPolicy(capacity=10)], cost_model=model
        ).run(trace)[0]
        sim_result = CacheSimulator(LRUPolicy(capacity=10), cost_model=model).run(trace)
        assert engine_result.latency.as_dict() == sim_result.latency.as_dict()

    def test_priced_result_surfaces_in_as_dict(self):
        model = CostModel("ssd")
        result = simulate(LRUPolicy(capacity=10), small_trace(), cost_model=model)
        row = result.as_dict()
        assert row["mean_read_latency_us"] == result.latency.mean_read_us
        assert row["p99_read_latency_us"] == result.latency.p99_read_us
        assert row["modeled_throughput_rps"] == result.latency.throughput_rps

    def test_multi_client_replay_is_priced_too(self):
        from repro.core.hints import make_hint_set

        hints_a = make_hint_set("client-a", object_id="x")
        hints_b = make_hint_set("client-b", object_id="y")
        trace = []
        for index in range(2_000):
            hints = hints_a if index % 2 else hints_b
            trace.append(rd(index % 50, hints))
        model = CostModel("ssd")
        result = MultiPolicySimulator([LRUPolicy(capacity=10)], cost_model=model).run(trace)[0]
        assert set(result.per_client) == {"client-a", "client-b"}
        assert result.latency.read_count == 2_000
        assert result.latency.as_dict() == model.latency_from_stats(result.stats).as_dict()

    def test_sharded_results_carry_per_shard_latency(self):
        model = CostModel("ssd")
        cluster = ShardedCache(capacity=12, policy="LRU", shards=4)
        result = simulate(cluster, small_trace(), cost_model=model)
        assert len(result.shard_latency) == 4
        merged = result.shard_latency[0]
        for shard in result.shard_latency[1:]:
            merged = merged.merge(shard)
        # Per-shard breakdowns compose back into the aggregate for
        # position-independent devices.
        assert merged.as_dict() == result.latency.as_dict()
        assert result.hottest_shard_penalty >= 1.0
        assert result.cluster_throughput_rps > 0.0
        row = result.as_dict()
        assert row["hottest_shard_penalty"] == result.hottest_shard_penalty
        # cluster_latency is exactly the merged per-shard view.
        assert result.cluster_latency.as_dict() == merged.as_dict()

    def test_seek_device_cluster_tracks_one_head_per_shard(self):
        # A cluster on a seek device is priced with one independent head
        # per shard (exact per-request seek walk, same method as the
        # unified rows it is compared against): the aggregate is exactly
        # the merged per-shard view, and the exact per-shard walk differs
        # from the position-free nominal-seek approximation.
        model = CostModel("hdd", page_span=1_000)
        cluster = ShardedCache(capacity=12, policy="LRU", shards=4)
        result = simulate(cluster, small_trace(), cost_model=model)
        assert result.cluster_latency.as_dict() == result.latency.as_dict()
        analytic = model.shard_latencies(result.per_shard)
        assert [shard.read_count for shard in result.shard_latency] == [
            shard.read_count for shard in analytic
        ]
        assert [shard.total_read_us for shard in result.shard_latency] != [
            shard.total_read_us for shard in analytic
        ]

    def test_single_shard_seek_cluster_prices_identically_to_wrapped_policy(self):
        # The cluster layer's shards=1 bit-identity must extend to pricing:
        # a one-shard HDD cluster reports exactly the wrapped policy's
        # seek-aware latency on every surface (not the analytic stand-in).
        model = CostModel("hdd", page_span=1_000)
        trace = small_trace()
        unified = simulate(LRUPolicy(capacity=10), trace, cost_model=model)
        cluster = simulate(
            ShardedCache(capacity=10, policy="LRU", shards=1), trace, cost_model=model
        )
        assert cluster.latency.as_dict() == unified.latency.as_dict()
        assert cluster.mean_read_latency_us == unified.mean_read_latency_us
        assert (
            cluster.as_dict()["mean_read_latency_us"]
            == unified.as_dict()["mean_read_latency_us"]
        )

    def test_sharded_seek_device_reports_cluster_view_on_every_surface(self):
        # as_dict(), the latency properties and sweep rows must all report
        # the independent-devices cluster view.
        model = CostModel("hdd", page_span=1_000)
        cluster = ShardedCache(capacity=12, policy="LRU", shards=4)
        result = simulate(cluster, small_trace(), cost_model=model)
        expected = result.cluster_latency.mean_read_us
        assert result.mean_read_latency_us == expected
        assert result.as_dict()["mean_read_latency_us"] == expected

    def test_cluster_latency_is_none_when_unsharded_or_unpriced(self):
        priced = simulate(LRUPolicy(capacity=10), small_trace(), cost_model=CostModel("ssd"))
        unpriced = simulate(ShardedCache(capacity=12, policy="LRU", shards=4), small_trace())
        assert priced.cluster_latency is None
        assert unpriced.cluster_latency is None

    def test_sweep_rows_gain_latency_columns_only_when_priced(self):
        trace = small_trace()
        cells = [
            SweepCell(x=10.0, specs=(PolicySpec(label="LRU", name="LRU", capacity=10),))
        ]
        plain = ParallelSweepRunner(trace).run(cells, parameter="cache_size")
        priced = ParallelSweepRunner(trace, cost_model=CostModel("ssd")).run(
            cells, parameter="cache_size"
        )
        assert "mean_read_latency_us" not in plain.as_rows()[0]
        priced_row = priced.as_rows()[0]
        assert priced_row["mean_read_latency_us"] > 0.0
        assert priced.mean_read_latencies("LRU") == [priced_row["mean_read_latency_us"]]

    def test_parallel_sweep_prices_identically_to_serial(self):
        trace = small_trace()
        cells = [
            SweepCell(
                x=float(capacity),
                specs=(PolicySpec(label="LRU", name="LRU", capacity=capacity),),
            )
            for capacity in (5, 10, 20, 40)
        ]
        model = CostModel("hdd", page_span=1_000)
        serial = ParallelSweepRunner(trace, jobs=1, cost_model=model).run(
            cells, parameter="cache_size"
        )
        parallel = ParallelSweepRunner(trace, jobs=2, cost_model=model).run(
            cells, parameter="cache_size"
        )
        for label in serial.labels():
            for a, b in zip(serial.series[label], parallel.series[label]):
                assert a.x == b.x
                assert a.result.latency.as_dict() == b.result.latency.as_dict()


#: Seek devices the walk is held to: the stock HDD under both write
#: policies, and a custom profile whose timings are all fractional.
_CUSTOM_SEEK = DeviceProfile(
    name="custom-seek", cache_hit_us=0.3, read_base_us=101.7,
    read_transfer_us=3.3, write_us=77.1, seek_us=913.37,
)
_SEEK_MODELS = [
    CostModel("hdd", page_span=256),
    CostModel("hdd", write_policy="write-back", page_span=256),
    CostModel(_CUSTOM_SEEK, page_span=97),
    CostModel(_CUSTOM_SEEK, write_policy="write-back", page_span=97),
]
#: Position-independent devices: priced from the counts.
_FLAT_MODELS = [
    CostModel("ssd"),
    CostModel("nvme", write_policy="write-back"),
    CostModel(
        DeviceProfile(name="custom-flat", cache_hit_us=0.7, read_base_us=13.1,
                      read_transfer_us=0.9, write_us=21.3)
    ),
]


@st.composite
def priced_streams(draw):
    """``(requests, hits, shard ids, shard count, chunk bounds)``: pages
    from a span far below, around or far above the seek span (repeats put
    distance 0 in, wide spans the ``seek_span`` cap, and the full ``int64``
    range distances no ``int64`` holds), random flags and chunk cuts."""
    n = draw(st.integers(1, 120))
    low, high = draw(
        st.sampled_from([(0, 3), (0, 300), (0, 40_000), (-(2**63), 2**63 - 1)])
    )
    pages = draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    hits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    shards = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, shards - 1), min_size=n, max_size=n))
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=6)) if n > 1 else []
    bounds = [0, *sorted(set(cuts)), n]
    requests = [
        (wr if write else rd)(page) for page, write in zip(pages, writes)
    ]
    return requests, hits, ids, shards, bounds


def _chunks(requests, hits, ids, bounds):
    """The stream as (chunk, batch) pairs cut at *bounds*; each batch
    carries its shard ids the way a cluster's batch does."""
    for start, end in zip(bounds, bounds[1:]):
        n = end - start
        batch = AccessOutcomeBatch(
            hit=np.array(hits[start:end], np.bool_),
            admitted=np.zeros(n, np.bool_),
            bypassed=np.zeros(n, np.bool_),
            evicted_pages=np.zeros(0, np.int64),
            evicted_offsets=np.zeros(n + 1, np.int64),
            shard=np.array(ids[start:end], np.int64),
        )
        yield ColumnarChunk.from_requests(requests[start:end], start), batch


@pytest.mark.property
class TestSeekWalkMatchesTheReference:
    """The column walk against the scalar accumulators of
    ``tests/cost_reference.py``, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(stream=priced_streams(), model_index=st.integers(0, len(_SEEK_MODELS) - 1))
    def test_service_column_equals_price(self, stream, model_index):
        requests, hits, ids, shards, bounds = stream
        model = _SEEK_MODELS[model_index]
        walk = SeekWalk(model, shards)
        service = []
        for chunk, batch in _chunks(requests, hits, ids, bounds):
            service += walk.service_us(chunk.page, chunk.write, batch.hit, batch.shard).tolist()
        pricers = [CostAccumulator(model) for _ in range(shards)]
        expected = [
            pricers[shard].price(request, hit)
            for request, hit, shard in zip(requests, hits, ids)
        ]
        assert service == expected

    @settings(max_examples=150, deadline=None)
    @given(stream=priced_streams(), model_index=st.integers(0, len(_SEEK_MODELS) - 1))
    def test_cost_observer_equals_charge_then_finalize(self, stream, model_index):
        requests, hits, ids, shards, bounds = stream
        model = _SEEK_MODELS[model_index]
        clustered = shards > 1
        policy = (
            ShardedCache(capacity=4 * shards, policy="LRU", shards=shards)
            if clustered
            else LRUPolicy(capacity=4)
        )
        observer = CostObserver(model, policy)
        for chunk, batch in _chunks(requests, hits, ids, bounds):
            observer.on_batch(chunk, batch)
        accumulators = [CostAccumulator(model) for _ in range(shards)]
        for request, hit, shard in zip(requests, hits, ids):
            accumulators[shard].charge(request, hit)
        per_shard = tuple(accumulator.finalize() for accumulator in accumulators)
        fleet = LatencyStats.merge_all(per_shard) if clustered else per_shard[0]
        assert observer.finalize() == fleet
        assert observer.shard_latencies() == (per_shard if clustered else ())
        # finalize is repeatable.
        assert observer.finalize() == fleet

    @settings(max_examples=60, deadline=None)
    @given(
        stream=priced_streams(),
        model_index=st.integers(0, len(_FLAT_MODELS) - 1),
        chunk_size=st.integers(1, 50),
    )
    def test_flat_devices_price_the_counts_like_the_accumulator(
        self, stream, model_index, chunk_size
    ):
        stream_requests, _, _, shards, _ = stream
        # A narrow page range, so the policy hits as well as misses.
        requests = [
            (wr if request.is_write else rd)(request.page % 64)
            for request in stream_requests
        ]
        model = _FLAT_MODELS[model_index]

        def build():
            if shards == 1:
                return LRUPolicy(capacity=6)
            return ShardedCache(capacity=6 * shards, policy="LRU", shards=shards)

        engine = MultiPolicySimulator([build()], cost_model=model)
        engine.CHUNK_SIZE = chunk_size
        result = engine.run(requests)[0]
        policy = build()
        fleet = CostAccumulator(model)
        sharded = (
            ShardedCostAccumulator(model, reference_route(policy.router), shards)
            if shards > 1
            else None
        )
        hits = policy.batch_access(ColumnarChunk.from_requests(requests)).hit.tolist()
        for request, hit in zip(requests, hits):
            fleet.charge(request, hit)
            if sharded is not None:
                sharded.charge(request, hit)
        assert result.latency == fleet.finalize()
        if sharded is None:
            assert result.shard_latency == ()
        else:
            sharded.finalize()
            assert result.shard_latency == sharded.shard_latencies()


class TestSeekWalk:
    def test_heads_carry_across_chunks(self):
        """A walk fed one request per call prices like one fed the whole
        stream: the head is where the previous chunk left it."""
        model = CostModel("hdd", page_span=1_000)
        pages = np.array([5, 900, 900, 10, 700], np.int64)
        write = np.zeros(5, np.bool_)
        hit = np.zeros(5, np.bool_)
        whole = SeekWalk(model).seeks(pages, write, hit).tolist()
        walk = SeekWalk(model)
        pieces = [
            walk.seeks(pages[i : i + 1], write[i : i + 1], hit[i : i + 1]).tolist()[0]
            for i in range(5)
        ]
        assert pieces == whole
        assert whole[0] == model.profile.nominal_seek_us
        assert whole[2] == 0.0

    def test_flat_devices_have_no_head_to_walk(self):
        with pytest.raises(ValueError, match="seek head"):
            SeekWalk(CostModel("ssd"))

    def test_page_span_is_validated(self):
        with pytest.raises(ValueError, match="page_span"):
            CostModel("hdd", page_span=0)
