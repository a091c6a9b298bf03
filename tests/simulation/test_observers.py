"""Tests for the composable replay observers (the accounting layer)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cache.base import CacheStats
from repro.cache.lru import LRUPolicy
from repro.simulation.cluster import ShardedCache
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import MultiPolicySimulator
from repro.simulation.observers import (
    CostObserver,
    ReplayObserver,
    RollingObserver,
    ShardStatsObserver,
    StatsObserver,
    shard_observer_for,
)
from repro.simulation.simulator import CacheSimulator, simulate

from tests.conftest import chunked, rd, wr
from tests.observer_reference import record_outcome
from tests.policy_reference import LRUPolicy as ReferenceLRU
from tests.policy_reference import ReferenceCluster


def _trace(n=2000, pages=120, seed=3):
    rng = random.Random(seed)
    return [
        rd(rng.randrange(pages)) if rng.random() < 0.7 else wr(rng.randrange(pages))
        for _ in range(n)
    ]


def _drive(observer: ReplayObserver, policy, stream, chunk=256):
    """Feed *observer* the outcome stream of *policy*, chunk-batched."""
    for part in chunked(stream, [chunk]):
        observer.on_batch(part, policy.batch_access(part))


class TestStatsObserver:
    def test_reconstructs_cache_stats(self):
        stream = _trace()
        policy = LRUPolicy(40)
        observer = StatsObserver()
        _drive(observer, policy, stream)
        expected = simulate(LRUPolicy(40), stream).stats
        assert observer.finalize() == expected

    def test_batch_fold_matches_the_scalar_fold(self):
        stream = _trace(n=500)
        observer = StatsObserver()
        _drive(observer, LRUPolicy(30), stream)
        policy, expected = ReferenceLRU(30), CacheStats()
        for seq, request in enumerate(stream):
            record_outcome(expected, request, policy.access(request, seq))
        assert observer.finalize() == expected
        assert expected.evictions and expected.write_hits


class TestRollingObserver:
    def test_matches_engine_rolling(self):
        stream = _trace()
        observer = RollingObserver(window=128)
        _drive(observer, LRUPolicy(40), stream, chunk=128)
        expected = simulate(LRUPolicy(40), stream, rolling_window=128).rolling
        assert observer.finalize() == expected

    def test_unaligned_chunks_self_correct(self):
        # One-request chunks must still close windows at every boundary
        # crossing.
        stream = _trace(n=700)
        observer = RollingObserver(window=100)
        _drive(observer, LRUPolicy(40), stream, chunk=1)
        expected = simulate(LRUPolicy(40), stream, rolling_window=100).rolling
        assert observer.finalize() == expected

    def test_finalize_is_non_destructive(self):
        observer = RollingObserver(window=64)
        _drive(observer, LRUPolicy(20), _trace(n=200), chunk=64)
        assert observer.finalize() == observer.finalize()


class TestShardStatsObserver:
    def test_matches_per_shard_result(self):
        stream = _trace()
        cluster = ShardedCache(capacity=36, policy="LRU", shards=3)
        result = CacheSimulator(cluster).run(stream)
        fresh = ShardedCache(capacity=36, policy="LRU", shards=3)
        observer = shard_observer_for(fresh)
        assert isinstance(observer, ShardStatsObserver)
        _drive(observer, fresh, stream)
        assert observer.finalize() == result.per_shard

    def test_batch_fold_matches_the_scalar_fold(self):
        """The batch fold reads the shard ids off the cluster's batch; the
        scalar reference routes each request itself and steps its shard."""
        stream = _trace()
        batched = ShardedCache(capacity=36, policy="LRU", shards=3)
        observer = shard_observer_for(batched)
        _drive(observer, batched, stream)
        scalar = ReferenceCluster(capacity=36, policy="LRU", shards=3)
        route = scalar.route
        shards = scalar.shards
        expected = tuple(CacheStats() for _ in shards)
        for seq, request in enumerate(stream):
            shard = route(request)
            record_outcome(expected[shard], request, shards[shard].access(request, seq))
        per_shard = observer.finalize()
        assert per_shard == expected
        assert all(stats.write_hits and stats.evictions for stats in per_shard)

    def test_plain_policies_get_no_shard_observer(self):
        assert shard_observer_for(LRUPolicy(10)) is None


class TestCostObserver:
    def test_matches_engine_pricing(self):
        stream = _trace()
        model = CostModel("hdd", page_span=200)
        policy = LRUPolicy(40)
        observer = CostObserver(model, policy)
        _drive(observer, policy, stream)
        expected = simulate(LRUPolicy(40), stream, cost_model=model).latency
        assert observer.finalize().as_dict() == expected.as_dict()


class _EvictionLog(ReplayObserver):
    """Example custom observer: the full eviction event log."""

    def __init__(self):
        self.events: list[tuple[int, int]] = []  # (seq, page)

    def on_batch(self, chunk, batch):
        seqs = np.repeat(chunk.seq, np.diff(batch.evicted_offsets))
        self.events.extend(zip(seqs.tolist(), batch.evicted_pages.tolist()))

    def finalize(self):
        return list(self.events)


class TestObserverContract:
    @pytest.mark.parametrize("missing", ["on_batch", "finalize"])
    def test_an_observer_must_fold_batches_and_finalize(self, missing):
        body = {
            "on_batch": lambda self, chunk, batch: None,
            "finalize": lambda self: None,
        }
        del body[missing]
        partial = type("Partial", (ReplayObserver,), body)
        with pytest.raises(TypeError, match=missing):
            partial()


class TestObserverFactories:
    def test_custom_observer_sees_every_outcome(self):
        stream = _trace()
        logs: list[_EvictionLog] = []

        def factory(policy):
            log = _EvictionLog()
            logs.append(log)
            return log

        result = CacheSimulator(LRUPolicy(40), observer_factories=[factory]).run(stream)
        assert len(logs) == 1
        assert len(logs[0].events) == result.stats.evictions
        seqs = [seq for seq, _ in logs[0].events]
        assert seqs == sorted(seqs)

    def test_engine_builds_one_observer_per_policy(self):
        stream = _trace(n=500)
        built: list[object] = []

        def factory(policy):
            built.append(policy)
            return _EvictionLog()

        policies = [LRUPolicy(20), LRUPolicy(40)]
        MultiPolicySimulator(policies, observer_factories=[factory]).run(stream)
        assert built == policies
