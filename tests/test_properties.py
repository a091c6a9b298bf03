"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.arc import ARCPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.opt import OPTPolicy
from repro.cache.tq import TQPolicy
from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.simulation.cluster import ShardedCache
from repro.simulation.simulator import CacheSimulator

from tests.clic_reference import HintTable, OutQueue, SpaceSaving
from tests.observer_reference import step
from tests.strategies import capacities, request_streams as request_streams_strategy

pytestmark = pytest.mark.property

# Shared generators live in tests/strategies.py; this module only binds the
# sizes its properties want.
request_streams = request_streams_strategy()

ONLINE_POLICIES = [LRUPolicy, ARCPolicy, TQPolicy]


# ----------------------------------------------------------------------------- policies
class TestPolicyProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams, capacity=capacities)
    @pytest.mark.parametrize("policy_class", ONLINE_POLICIES + [CLICPolicy])
    def test_capacity_never_exceeded(self, policy_class, stream, capacity):
        if policy_class is CLICPolicy:
            policy = CLICPolicy(capacity, CLICConfig(window_size=20, charge_metadata=False))
        else:
            policy = policy_class(capacity)
        for seq, request in enumerate(stream):
            step(policy, request, seq)
            assert len(policy) <= capacity

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams, capacity=capacities)
    @pytest.mark.parametrize("policy_class", ONLINE_POLICIES + [CLICPolicy])
    def test_contains_is_consistent_with_reported_hits(self, policy_class, stream, capacity):
        if policy_class is CLICPolicy:
            policy = CLICPolicy(capacity, CLICConfig(window_size=20, charge_metadata=False))
        else:
            policy = policy_class(capacity)
        for seq, request in enumerate(stream):
            expected_hit = policy.contains(request.page)
            assert step(policy, request, seq).hit == expected_hit

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams, capacity=capacities)
    @pytest.mark.parametrize("policy_class", ONLINE_POLICIES)
    def test_opt_read_hit_ratio_upper_bounds_online_policies(self, policy_class, stream, capacity):
        opt = CacheSimulator(OPTPolicy(capacity)).run(stream).read_hit_ratio
        online = CacheSimulator(policy_class(capacity)).run(stream).read_hit_ratio
        assert opt >= online - 1e-9

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams, capacity=capacities)
    @pytest.mark.parametrize("router", ["hash", "client"])
    def test_opt_read_hit_ratio_upper_bounds_sharded_clusters(self, router, stream, capacity):
        """Splitting the capacity across shards never beats unified OPT."""
        opt = CacheSimulator(OPTPolicy(capacity)).run(stream).read_hit_ratio
        cluster = ShardedCache(capacity, policy="ARC", shards=min(3, capacity), router=router)
        sharded = CacheSimulator(cluster).run(stream).read_hit_ratio
        assert opt >= sharded - 1e-9

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams, capacity=capacities)
    def test_opt_upper_bounds_clic(self, stream, capacity):
        opt = CacheSimulator(OPTPolicy(capacity)).run(stream).read_hit_ratio
        clic_policy = CLICPolicy(capacity, CLICConfig(window_size=20, charge_metadata=False))
        clic = CacheSimulator(clic_policy).run(stream).read_hit_ratio
        assert opt >= clic - 1e-9

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams, capacity=capacities)
    def test_policies_are_deterministic(self, stream, capacity):
        for policy_class in (LRUPolicy, ARCPolicy):
            first = CacheSimulator(policy_class(capacity)).run(stream)
            second = CacheSimulator(policy_class(capacity)).run(stream)
            assert first.stats.as_dict() == second.stats.as_dict()

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams, capacity=capacities)
    def test_clic_deterministic(self, stream, capacity):
        def run():
            policy = CLICPolicy(capacity, CLICConfig(window_size=25, charge_metadata=False))
            return CacheSimulator(policy).run(stream).stats.as_dict()

        assert run() == run()

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=request_streams, capacity=capacities)
    def test_stats_counters_add_up(self, stream, capacity):
        policy = LRUPolicy(capacity)
        result = CacheSimulator(policy).run(stream)
        stats = result.stats
        assert stats.requests == len(stream)
        assert stats.read_hits <= stats.read_requests
        assert stats.write_hits <= stats.write_requests
        # Every cached page was admitted exactly once per residency.
        assert stats.admissions - stats.evictions == len(policy)


# -------------------------------------------------------------------------- hint table
class TestHintStatisticsProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans(), st.integers(1, 50)),
            max_size=200,
        )
    )
    def test_hint_table_invariants(self, events):
        table = HintTable()
        requests_seen: dict[str, int] = {}
        for key, is_request, distance in events:
            if is_request:
                table.record_request((key,))
                requests_seen[key] = requests_seen.get(key, 0) + 1
            else:
                table.record_read_rereference((key,), distance)
        for key, stats in table.snapshot().items():
            assert stats.requests == requests_seen.get(key[0], 0)
            assert stats.read_rereferences >= 0
            assert stats.distance_total >= stats.read_rereferences  # distances are >= 1
            assert stats.priority >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=400),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_space_saving_error_bounds(self, items, k):
        from collections import Counter

        truth = Counter(items)
        summary = SpaceSaving(k)
        for item in items:
            summary.offer(item)
        assert len(summary) <= k
        for item, entry in summary.tracked().items():
            # Classic Space-Saving guarantees.
            assert entry.count >= truth[item]
            assert entry.count - entry.error <= truth[item]
            assert entry.error <= len(items) // k

    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(st.integers(min_value=0, max_value=8), min_size=20, max_size=400),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_space_saving_catches_heavy_hitters(self, items, k):
        from collections import Counter

        summary = SpaceSaving(k)
        for item in items:
            summary.offer(item)
        threshold = len(items) / k
        for item, count in Counter(items).items():
            if count > threshold:
                assert item in summary


# ---------------------------------------------------------------------------- outqueue
class TestOutQueueProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 1_000)), max_size=300
        ),
        capacity=st.integers(min_value=0, max_value=10),
    )
    def test_outqueue_never_exceeds_capacity(self, operations, capacity):
        queue = OutQueue(capacity)
        for page, seq in operations:
            queue.put(page, seq, ())
            assert len(queue) <= capacity

    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 1_000)), min_size=1, max_size=300
        ),
    )
    def test_outqueue_remembers_most_recent_metadata(self, operations):
        queue = OutQueue(capacity=1_000)      # effectively unbounded here
        latest: dict[int, int] = {}
        for page, seq in operations:
            queue.put(page, seq, ())
            latest[page] = seq
        for page, seq in latest.items():
            assert queue.get(page).seq == seq
