"""Tests for the service-time cost model and its engine integration."""

from __future__ import annotations

import pickle

import pytest

from repro.cache.base import CacheStats
from repro.cache.lru import LRUPolicy
from repro.simulation.cluster import ShardedCache
from repro.simulation.costmodel import (
    DEVICE_PROFILES,
    HISTOGRAM_BUCKET_BOUNDS_US,
    CostModel,
    DeviceProfile,
    LatencyStats,
    make_device_profile,
)
from repro.simulation.engine import MultiPolicySimulator, ParallelSweepRunner, PolicySpec, SweepCell
from repro.simulation.simulator import CacheSimulator, simulate

from tests.conftest import rd, wr


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
            accumulator = model.accumulator()
            policy = LRUPolicy(capacity=10)
            stats = CacheStats()
            for seq, request in enumerate(small_trace()):
                outcome = policy.access(request, seq)
                accumulator.charge(request, outcome.hit)
                stats.record_outcome(request, outcome)
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
        pricer, recorder = model.accumulator(), model.accumulator()
        priced_total = 0.0
        for request, hit in requests:
            priced_total += pricer.price(request, hit)
            recorder.charge(request, hit)
        assert priced_total == pytest.approx(recorder.finalize().total_us)

    def test_price_does_not_accumulate(self):
        from repro.simulation.request import read_request

        accumulator = CostModel("ssd").accumulator()
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
            accumulator = model.accumulator()
            policy = LRUPolicy(capacity=1)
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
