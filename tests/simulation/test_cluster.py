"""Tests for the sharded-cluster layer: routers, ShardedCache, determinism."""

from __future__ import annotations

import functools
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import registry
from repro.cache.base import AccessOutcomeBatch, CacheStats
from repro.cache.lru import LRUPolicy
from repro.cache.registry import available_policies, create_policy
from repro.core.hints import make_hint_set
from repro.simulation.cluster import (
    ClientAffinityRouter,
    HashRouter,
    ShardedCache,
    ShardRouter,
    make_router,
)
from repro.simulation.engine import MultiPolicySimulator, PolicySpec, SweepCell
from repro.simulation.multiclient import interleave_round_robin, partition_capacity
from repro.simulation.request import IORequest, RequestKind
from repro.simulation.simulator import CacheSimulator
from repro.simulation.sweep import sweep_cache_sizes
from repro.trace.columnar import ColumnarChunk, ColumnarSource

from tests.conftest import chunked, stream_requests
from tests.observer_reference import decode_outcomes, reference_route
from tests.policy_reference import LRUPolicy as ReferenceLRU
from tests.policy_reference import ReferenceCluster


def _trace(rng: random.Random, clients=("alpha",), n=3000, pages=800):
    requests = []
    for i in range(n):
        client = clients[i % len(clients)]
        requests.append(
            IORequest(
                page=rng.randrange(pages),
                kind=RequestKind.READ if rng.random() < 0.8 else RequestKind.WRITE,
                hints=make_hint_set(client, object_id=rng.randrange(6)),
            )
        )
    return requests


def _request(page: int, client: str = "c") -> IORequest:
    return IORequest(page=page, kind=RequestKind.READ, hints=make_hint_set(client))


def _route_in_chunks(router, requests, size: int) -> list[int]:
    """Route *requests* with *router*'s ``route_batch``, *size* at a time."""
    chunks = chunked(requests, [size])
    return [shard for chunk in chunks for shard in router.route_batch(chunk).tolist()]


class TestRouters:
    def test_hash_router_is_deterministic_and_in_range(self):
        requests = [_request(page) for page in range(1000)]
        shards = _route_in_chunks(HashRouter(5), requests, 97)
        assert all(0 <= shard < 5 for shard in shards)
        assert shards == _route_in_chunks(HashRouter(5), requests, len(requests))

    def test_hash_router_spreads_strided_pages(self):
        """A strided page pattern must not alias onto a single shard."""
        requests = [_request(page) for page in range(0, 4000, 4)]
        assert set(_route_in_chunks(HashRouter(4), requests, len(requests))) == {0, 1, 2, 3}

    def test_client_router_assigns_by_first_appearance(self):
        requests = [
            _request(1, "a"),
            _request(2, "b"),
            _request(3, "c"),
            _request(4, "d"),  # wraps round-robin
            _request(9, "b"),  # sticky per client
        ]
        for size in (1, len(requests)):
            assert _route_in_chunks(ClientAffinityRouter(3), requests, size) == [0, 1, 2, 0, 1]

    def test_a_router_must_route_batches(self):
        class Unrouted(ShardRouter):
            name = "unrouted"

        with pytest.raises(TypeError, match="route_batch"):
            Unrouted(2)

    def test_make_router_names_and_errors(self):
        assert isinstance(make_router("hash", 2), HashRouter)
        assert isinstance(make_router("client", 2), ClientAffinityRouter)
        with pytest.raises(ValueError, match="unknown router"):
            make_router("mystery", 2)
        ready = HashRouter(3)
        assert make_router(ready, 3) is ready
        with pytest.raises(ValueError, match="shards"):
            make_router(ready, 4)

    @settings(max_examples=40, deadline=None)
    @given(
        pages=st.lists(
            st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=200
        ),
        shards=st.integers(min_value=1, max_value=9),
    )
    def test_hash_route_batch_matches_route(self, pages, shards):
        """The vector fmix64 pipeline wraps exactly like the reference's
        Python ints, however the stream is chunked."""
        requests = [_request(page) for page in pages]
        expected = list(map(reference_route(HashRouter(shards)), requests))
        for size in (1, 7, len(requests)):
            assert _route_in_chunks(HashRouter(shards), requests, size) == expected

    def test_client_route_batch_matches_route_across_chunks(self, rng):
        """First-appearance assignments carry over from one chunk to the next
        exactly as they do request by request."""
        requests = _trace(rng, clients=("a", "b", "c", "d", "e"), n=700)
        expected = list(map(reference_route(ClientAffinityRouter(3)), requests))
        for size in (1, 97):
            assert _route_in_chunks(ClientAffinityRouter(3), requests, size) == expected

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            HashRouter(0)
        with pytest.raises(TypeError):
            HashRouter(2.5)


class TestShardedCacheBasics:
    def test_capacity_is_partitioned_exactly(self):
        cluster = ShardedCache(capacity=10, policy="LRU", shards=3)
        assert cluster.capacity == 10
        assert [shard.capacity for shard in cluster.shards] == partition_capacity(10, 3)

    def test_capacity_invariant_and_disjoint_shards(self, rng):
        cluster = ShardedCache(capacity=30, policy="LRU", shards=4)
        for chunk in chunked(_trace(rng, n=2000, pages=300), [1, 2, 3, 5, 8, 13]):
            cluster.batch_access(chunk)
            assert len(cluster) <= cluster.capacity
        # Each cached page lives only in the shard that owns it.
        route = reference_route(cluster.router)
        for index, shard in enumerate(cluster.shards):
            for page in shard.cached_pages():
                assert route(_request(page)) == index
        assert sorted(cluster.cached_pages()) == sorted(
            page for shard in cluster.shards for page in shard.cached_pages()
        )

    def test_aggregate_stats_equal_sum_of_shard_stats(self, rng):
        cluster = ShardedCache(capacity=40, policy="ARC", shards=3)
        result = CacheSimulator(cluster).run(_trace(rng, n=2500))
        total = CacheStats()
        for stats in result.per_shard:
            total.read_requests += stats.read_requests
            total.read_hits += stats.read_hits
            total.write_requests += stats.write_requests
            total.write_hits += stats.write_hits
            total.evictions += stats.evictions
            total.admissions += stats.admissions
            total.bypasses += stats.bypasses
        assert result.stats == total
        assert total.requests == 2500

    def test_contains_checks_all_shards(self, rng):
        cluster = ShardedCache(capacity=50, policy="LRU", shards=4)
        requests = _trace(rng, n=1000, pages=100)
        CacheSimulator(cluster).run(requests)
        for page in cluster.cached_pages():
            assert cluster.contains(page)

    def test_registry_builds_and_specs_pickle(self):
        cluster = create_policy(
            "SHARDED", capacity=12, policy="LRU", shards=3, router="hash"
        )
        assert isinstance(cluster, ShardedCache)
        spec = PolicySpec(
            label="LRUx3",
            name="SHARDED",
            capacity=12,
            kwargs={"policy": "LRU", "shards": 3, "router": "hash"},
        )
        rebuilt = pickle.loads(pickle.dumps(spec)).build()
        assert isinstance(rebuilt, ShardedCache)
        assert rebuilt.shard_count == 3

    @pytest.mark.parametrize("shard", ["python-policy", "kernel-subclass"])
    def test_shards_without_their_kernel_are_refused(self, monkeypatch, shard):
        """A cluster replays every chunk in one ``<kernel>_cluster`` call, so
        a shard policy that does not batch through its policy kernel — a
        Python policy, or a subclass of a kernel policy that overrides
        ``batch_access`` — is refused when the cluster is built."""

        class OddBypassingLRU(LRUPolicy):
            def batch_access(self, chunk) -> AccessOutcomeBatch:
                batch = super().batch_access(chunk)
                batch.bypassed |= chunk.page % 2 == 1
                return batch

        policy = {"python-policy": ReferenceLRU, "kernel-subclass": OddBypassingLRU}[shard]
        monkeypatch.setitem(registry._REGISTRY, "OVERRIDING-LRU", policy)
        with pytest.raises(TypeError, match="OVERRIDING-LRU.*compiled shards"):
            ShardedCache(capacity=60, policy="OVERRIDING-LRU", shards=3)

    def test_a_wrapped_kernel_batch_access_is_still_the_kernel(self, rng, monkeypatch):
        """Instrumentation that wraps a shard class's ``batch_access`` (with
        ``functools.wraps``) leaves it the kernel's: the cluster builds and
        replays through its cluster call."""
        kernel_batch_access = LRUPolicy.batch_access

        @functools.wraps(kernel_batch_access)
        def timed(self, chunk):
            return kernel_batch_access(self, chunk)

        monkeypatch.setattr(LRUPolicy, "batch_access", timed)
        requests = _trace(rng, n=500, pages=100)
        cluster = ShardedCache(capacity=30, policy="LRU", shards=3)
        expected = ReferenceCluster(capacity=30, policy="LRU", shards=3)
        replayed = decode_outcomes(cluster.batch_access(ColumnarChunk.from_requests(requests)))
        assert replayed == [expected.access(request, seq) for seq, request in enumerate(requests)]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ShardedCache(capacity=10, policy="LRU", shards=0)
        with pytest.raises(ValueError):
            ShardedCache(capacity=2, policy="LRU", shards=5)  # < 1 page per shard


def _fail(*args, **kwargs):
    raise AssertionError("called")


#: Every compiled shard policy of the cluster layer.
_KERNELS = ("LRU", "ARC", "TQ", "OPT", "CLIC")


class TestKernelClusterCall:
    """A cluster of kernel shards replays each chunk in one call of its
    kernel's cluster entry point, with one route per chunk."""

    @staticmethod
    def _stream(rng, router: str) -> tuple[list[IORequest], list[int]]:
        """Four clients' requests and chunk sizes cutting them into a
        0-request chunk, a 1-request chunk, a chunk that leaves shard 3
        empty (the hash router's shard 0 only; the client router gives
        three clients shards 0-2) and the rest."""
        requests = _trace(rng, clients=("a", "b", "c"), n=300, pages=120)
        if router == "hash":
            route = reference_route(HashRouter(4))
            one_shard = [r for r in requests if route(r) == 0][:40]
        else:
            one_shard = requests[:40]
        rest = _trace(rng, clients=("a", "b", "c", "d"), n=400, pages=120)
        return [requests[0], *one_shard, *rest], [0, 1, len(one_shard), len(rest)]

    @pytest.mark.parametrize("router", ["hash", "client"])
    @pytest.mark.parametrize("policy", _KERNELS)
    def test_one_kernel_call_per_chunk_and_no_shard_batch_access(
        self, rng, monkeypatch, policy, router
    ):
        stream, sizes = self._stream(rng, router)
        reference = ReferenceCluster(capacity=40, policy=policy, shards=4, router=router)
        cluster = ShardedCache(capacity=40, policy=policy, shards=4, router=router)
        if cluster.offline:
            cluster.prepare(stream)
            reference.prepare(stream)
        calls: list[int] = []
        kernel_call = cluster._kernel_call
        monkeypatch.setattr(
            cluster, "_kernel_call", lambda n, columns: (calls.append(n), kernel_call(n, columns))
        )
        routes: list[int] = []
        route_batch = cluster.router.route_batch
        monkeypatch.setattr(
            cluster.router, "route_batch", lambda chunk: (routes.append(len(chunk)), route_batch(chunk))[1]
        )
        for shard in cluster.shards:
            for method in ("batch_access", "_call"):
                monkeypatch.setattr(shard, method, _fail)

        replayed, empty_shards = [], []
        offset = 0
        for size in sizes:
            chunk = ColumnarChunk.from_requests(stream[offset : offset + size], offset)
            offset += size
            batch = cluster.batch_access(chunk)
            assert len(batch) == len(batch.shard) == size
            empty_shards.append(set(range(4)) - set(batch.shard.tolist()))
            replayed.extend(decode_outcomes(batch))
        assert calls == routes == sizes
        assert empty_shards[2] >= {3}
        expected = [reference.access(request, seq) for seq, request in enumerate(stream)]
        assert replayed == expected
        assert sorted(cluster.cached_pages()) == sorted(reference.cached_pages())

    @pytest.mark.parametrize(
        "routed",
        [
            pytest.param(lambda n: np.full(n, 3), id="past-the-last-shard"),
            pytest.param(lambda n: np.full(n, -1), id="negative"),
            pytest.param(lambda n: np.zeros(n + 1, np.int64), id="too-long"),
            pytest.param(lambda n: np.zeros(n - 1, np.int64), id="too-short"),
        ],
    )
    def test_a_bad_route_raises_before_any_kernel_call(self, rng, monkeypatch, routed):
        class BadRouter(ShardRouter):
            name = "bad"

            def route_batch(self, chunk):
                return routed(len(chunk))

        cluster = ShardedCache(capacity=30, policy="LRU", shards=3, router=BadRouter(3))
        monkeypatch.setattr(cluster, "_kernel_call", _fail)
        for shard in cluster.shards:
            monkeypatch.setattr(shard, "batch_access", _fail)
        chunk = ColumnarChunk.from_requests(_trace(rng, n=50), 0)
        with pytest.raises(ValueError, match="router 'bad' routed"):
            cluster.batch_access(chunk)
        assert len(cluster) == 0


class TestSingleShardEquivalence:
    """shards=1 must be bit-identical to the wrapped policy."""

    @pytest.mark.parametrize("router", ["hash", "client"])
    def test_every_registered_policy(self, rng, router):
        requests = _trace(rng, clients=("alpha", "beta"), n=2500)
        for name in available_policies():
            if name == "SHARDED":
                continue
            plain = CacheSimulator(create_policy(name, capacity=60)).run(requests)
            sharded = CacheSimulator(
                ShardedCache(capacity=60, policy=name, shards=1, router=router)
            ).run(requests)
            assert sharded.stats == plain.stats, name
            assert sharded.per_client == plain.per_client, name

    def test_engine_path_matches_too(self, rng):
        requests = _trace(rng, n=2000)
        plain, sharded = MultiPolicySimulator(
            [
                create_policy("OPT", capacity=50),
                ShardedCache(capacity=50, policy="OPT", shards=1),
            ]
        ).run(requests)
        assert sharded.stats == plain.stats
        assert sharded.per_client == plain.per_client

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pages=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=300),
        capacity=st.integers(min_value=1, max_value=20),
        policy=st.sampled_from(["LRU", "ARC", "TQ", "OPT"]),
    )
    def test_property_single_shard_identity(self, pages, capacity, policy):
        """Property: on any stream, ShardedCache(shards=1) == the bare policy."""
        stream = [
            IORequest(
                page=page,
                kind=RequestKind.READ if page % 3 else RequestKind.WRITE,
            )
            for page in pages
        ]
        plain = CacheSimulator(create_policy(policy, capacity=capacity)).run(stream)
        sharded = CacheSimulator(
            ShardedCache(capacity=capacity, policy=policy, shards=1)
        ).run(stream)
        assert sharded.stats == plain.stats
        assert sharded.per_client == plain.per_client


class TestClusterBehaviour:
    def test_client_affinity_equals_static_partitioning(self, rng):
        """S = number of clients rebuilds Figure 11's private caches exactly."""
        trace_a = _trace(rng, clients=("a",), n=1200, pages=300)
        trace_b = _trace(rng, clients=("b",), n=1200, pages=300)
        interleaved = interleave_round_robin([trace_a, trace_b])
        capacity = 41                                   # odd: uneven partition
        cluster = ShardedCache(capacity=capacity, policy="LRU", shards=2, router="client")
        result = CacheSimulator(cluster).run(interleaved)

        sizes = partition_capacity(capacity, 2)
        by_client: dict[str, list[IORequest]] = {}
        for request in stream_requests(interleaved):
            by_client.setdefault(request.client_id, []).append(request)
        clients = list(by_client)                       # first-appearance order
        for index, client in enumerate(clients):
            private = CacheSimulator(create_policy("LRU", capacity=sizes[index]))
            expected = private.run(by_client[client])
            assert result.per_shard[index] == expected.stats

    def test_sharded_opt_stays_below_unified_opt(self, rng):
        requests = _trace(rng, n=3000)
        unified_policy = create_policy("OPT", capacity=60)
        cluster = ShardedCache(capacity=60, policy="OPT", shards=4)
        unified, sharded = MultiPolicySimulator([unified_policy, cluster]).run(requests)
        assert sharded.read_hit_ratio <= unified.read_hit_ratio + 1e-9
        # The engine builds ONE future-read index for the whole pass: the
        # unified OPT and every OPT shard adopt the same object.
        for shard in cluster.shards:
            assert shard._index is unified_policy._index

    def test_client_routed_opt_equals_opt_on_each_shard_substream(self, rng):
        """Client routing can send one page to several shards, so each OPT
        shard must see its own sub-stream's next reads.

        Regression: the cluster adopted the stream-wide index.  On the
        6-request stream below, b's read of page 1 (on the other shard)
        pinned page 1 in a's shard with a stale next read, and client a
        scored 0 read hits where OPT on a's own sub-stream scores 2.
        """
        tiny = [
            IORequest(page=page, kind=RequestKind.READ, hints=make_hint_set(client))
            for page, client in zip((1, 2, 3, 1, 2, 2), "aaabaa")
        ]
        shared_pages = _trace(rng, clients=("a", "b"), n=1600, pages=150)
        for stream, capacity in ((tiny, 2), (shared_pages, 41)):
            by_client: dict[str, list[IORequest]] = {}
            for request in stream:
                by_client.setdefault(request.client_id, []).append(request)
            expected = [
                CacheSimulator(create_policy("OPT", capacity=size)).run(sub).stats
                for size, sub in zip(partition_capacity(capacity, 2), by_client.values())
            ]
            # The router's first-appearance assignments carry across chunk
            # boundaries, in one chunk or many.
            for source in (stream, ColumnarSource(stream, chunk_requests=5)):
                cluster = ShardedCache(
                    capacity=capacity, policy="OPT", shards=2, router="client"
                )
                (result,) = MultiPolicySimulator([cluster]).run(source)
                assert list(result.per_shard) == expected
        assert expected[0].read_hits > 0

    def test_only_page_keyed_clusters_share_the_stream_index(self, rng):
        requests = _trace(rng, clients=("a", "b"), n=1000)
        unified = create_policy("OPT", capacity=40)
        by_page = ShardedCache(capacity=40, policy="OPT", shards=2, router="hash")
        by_client = ShardedCache(capacity=40, policy="OPT", shards=2, router="client")
        MultiPolicySimulator([unified, by_page, by_client]).run(requests)
        assert all(shard._index is unified._index for shard in by_page.shards)
        first, second = [shard._index for shard in by_client.shards]
        assert first is second
        assert first is not unified._index

    def test_prepare_shares_one_index_across_opt_shards(self, rng):
        """The CacheSimulator path must not index the stream once per shard."""
        cluster = ShardedCache(capacity=40, policy="OPT", shards=3)
        CacheSimulator(cluster).run(_trace(rng, n=1000))
        first, *rest = [shard._index for shard in cluster.shards]
        for positions in rest:
            assert positions is first

    def test_per_shard_results_surface_in_both_replay_paths(self, rng):
        requests = _trace(rng, n=1500)
        build = lambda: ShardedCache(capacity=40, policy="LRU", shards=4)
        via_simulator = CacheSimulator(build()).run(requests)
        (via_engine,) = MultiPolicySimulator([build()]).run(requests)
        assert via_simulator.per_shard == via_engine.per_shard
        assert via_simulator.shard_count == 4
        assert sum(via_simulator.shard_request_counts) == 1500
        assert via_simulator.load_imbalance >= 1.0
        # An unsharded policy reports no shards.
        plain = CacheSimulator(create_policy("LRU", capacity=40)).run(requests)
        assert plain.per_shard == ()
        assert plain.load_imbalance == 1.0

    def test_cluster_sweep_jobs_do_not_change_results(self, rng):
        requests = _trace(rng, clients=("a", "b"), n=2000)
        kwargs = {"SHARDED": {"policy": "LRU", "shards": 3}}
        serial = sweep_cache_sizes(
            requests, cache_sizes=[24, 48], policies=["SHARDED"],
            policy_kwargs=kwargs, jobs=1,
        )
        parallel = sweep_cache_sizes(
            requests, cache_sizes=[24, 48], policies=["SHARDED"],
            policy_kwargs=kwargs, jobs=4,
        )
        assert serial.labels() == parallel.labels()
        for p_serial, p_parallel in zip(
            serial.series["SHARDED"], parallel.series["SHARDED"]
        ):
            assert p_serial.result.stats == p_parallel.result.stats
            assert p_serial.result.per_shard == p_parallel.result.per_shard
            assert p_serial.result.per_client == p_parallel.result.per_client
