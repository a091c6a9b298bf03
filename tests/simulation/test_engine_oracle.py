"""The engine's full result equals a scalar replay.

:class:`~repro.simulation.engine.MultiPolicySimulator` replays columnar
chunks: batch kernels, column-native observers, per-client rows as masked
popcounts, chunks that end inside rolling windows.  The oracle here is
the definition those shortcuts must reproduce, one request at a time in
stream order: the pure-Python references' ``access()``
(``tests/policy_reference.py``; a reference cluster's shard's, routed by the
reference route), the per-request folds of ``tests/observer_reference.py``,
per-client stats counted request by request.  Every field of every result
must match — stats, per-client, per-shard, latency, per-shard latency,
rolling windows and queueing — at every engine chunk size: no observer's
result may depend on where chunks end.  Every kernel must evict on these
streams, so each eviction path is under the oracle.  While the references
are registered, the registry lists them too, so the engine also replays
each reference through its scalar lift.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.base import CachePolicy, CacheStats
from repro.cache.registry import available_policies, create_policy
from repro.core.config import CLICConfig
from repro.core.hints import make_hint_set
from repro.simulation.cluster import is_cluster
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import MultiPolicySimulator
from repro.simulation.queueing import QueueingModel
from repro.simulation.request import IORequest, RequestKind
from repro.trace.cache import TraceSpec
from repro.workloads.arrivals import PoissonArrivals

from tests import policy_reference
from tests.conftest import stream_requests
from tests.cost_reference import accumulator_for
from tests.observer_reference import (
    RollingReference,
    lift_outcome,
    record,
    record_outcome,
)
from tests.policy_reference import REFERENCES, reference_case

CAPACITY = 150
#: Does not divide 4,096, so window and chunk boundaries fall out of step.
ROLLING_WINDOW = 1_000
#: Engine chunk sizes for sources the engine cuts itself (lists and
#: generators): the default, and a prime that ends chunks inside rolling
#: windows, CLIC priority windows and OPT's heap compactions.
CHUNK_SIZES = (MultiPolicySimulator.CHUNK_SIZE, 97)

#: Registry kwargs for the policies that need them.  CLIC's priority
#: windows close inside the streams, so its priorities rise above zero and
#: it evicts.
_POLICY_KWARGS = {
    "CLIC": {"config": CLICConfig(window_size=1_000)},
    "SHARDED": {"policy": "LRU", "shards": 3, "router": "hash"},
}


def _build(name: str) -> CachePolicy:
    return create_policy(name, capacity=CAPACITY, **_POLICY_KWARGS.get(name, {}))


def _oracle_build(name: str) -> CachePolicy:
    """The policy the oracle replays for *name*: the reference of a
    compiled policy or of a cluster."""
    reference, kwargs = reference_case(name, _POLICY_KWARGS.get(name, {}))
    return create_policy(reference, capacity=CAPACITY, **kwargs)


@pytest.fixture(scope="module", autouse=True)
def _references():
    """Register the references for the oracle's clusters."""
    with policy_reference.registered():
        yield


#: (label, SHARDED kwargs) replayed with every observer attached.
_OBSERVED_CLUSTERS = [
    ("SHARDED[LRU,hash]x4", {"policy": "LRU", "shards": 4, "router": "hash"}),
    ("SHARDED[ARC,hash]x2", {"policy": "ARC", "shards": 2, "router": "hash"}),
    ("SHARDED[OPT,client]x2", {"policy": "OPT", "shards": 2, "router": "client"}),
]

_QUEUEING = {
    "hdd": QueueingModel(
        arrivals=PoissonArrivals(rate_rps=4_000.0, seed=7),
        device="hdd",
        page_span=2_000,
    ),
    "ssd": QueueingModel(arrivals=PoissonArrivals(rate_rps=30_000.0, seed=7)),
}


def _two_client_stream(n: int = 9_000) -> list[IORequest]:
    """Hinted reads and writes from two clients sharing a page range, with
    TQ's write hints among them so every policy has work to do."""
    rng = random.Random(2_009)
    hints = {
        client: [
            make_hint_set(client, object_id="hot"),
            make_hint_set(client, object_id="cold"),
            make_hint_set(client, request_type="replacement_write"),
            make_hint_set(client, request_type="recovery_write"),
        ]
        for client in ("alpha", "beta")
    }
    stream = []
    for _ in range(n):
        client = "alpha" if rng.random() < 0.6 else "beta"
        hot, cold, replacement, recovery = hints[client]
        if rng.random() < 0.75:
            page = rng.randrange(120) if rng.random() < 0.6 else rng.randrange(2_000)
            stream.append(
                IORequest(page, RequestKind.READ, hot if page < 120 else cold, client)
            )
        else:
            write_hints = replacement if rng.random() < 0.7 else recovery
            stream.append(
                IORequest(rng.randrange(2_000), RequestKind.WRITE, write_hints, client)
            )
    return stream


STREAM = _two_client_stream()
SPEC = TraceSpec("DB2_C60", seed=17, target_requests=6_000)


#: (source kind, engine chunk size) pairs.  A trace spec decodes in its own
#: 4,096-request blocks, so the engine's chunk size does not reach it.
_SOURCES = [
    pytest.param(kind, chunk_size, id=f"{kind}-{chunk_size}")
    for kind in ("list", "generator")
    for chunk_size in CHUNK_SIZES
] + [pytest.param("trace-spec", MultiPolicySimulator.CHUNK_SIZE, id="trace-spec")]


def _inputs(kind: str):
    """``(engine input, request list the oracle replays)``."""
    if kind == "list":
        return STREAM, STREAM
    if kind == "generator":
        return (request for request in STREAM), STREAM
    return SPEC, stream_requests(SPEC)


def _engine(policies, chunk_size: int, **options) -> MultiPolicySimulator:
    engine = MultiPolicySimulator(policies, **options)
    engine.CHUNK_SIZE = chunk_size
    return engine


def scalar_replay(policy, replayed, requests, cost_model=None, rolling_window=None,
                  queueing_model=None) -> dict:
    """The reference replay of *policy*, one request at a time: ``access()``,
    then the per-request folds, the reference cost accumulator's ``charge``
    and the queueing observer's ``on_batch`` over the lifted request.

    The accounting is the engine's for *replayed*, the policy the engine
    replayed: per shard for a cluster, whose reference *policy* routes each
    request to the shard reference that replays it."""
    if policy.offline:
        policy.prepare(requests)
    per_shard: tuple[CacheStats, ...] = ()
    if is_cluster(replayed):
        shards = policy.shards
        per_shard = tuple(CacheStats() for _ in shards)
    stats = CacheStats()
    cost = accumulator_for(cost_model, replayed) if cost_model else None
    roll = RollingReference(rolling_window) if rolling_window else None
    queueing = queueing_model.observer_for(replayed) if queueing_model else None
    per_client: dict[str, CacheStats] = {}
    shard = None
    for seq, request in enumerate(requests):
        if not per_shard:
            outcome = policy.access(request, seq)
        else:
            shard = policy.route(request)
            outcome = shards[shard].access(request, seq)
            record_outcome(per_shard[shard], request, outcome)
        record_outcome(stats, request, outcome)
        if roll is not None:
            roll.on_outcome(request, seq, outcome)
        if queueing is not None:
            queueing.on_batch(*lift_outcome(shard, request, seq, outcome))
        if cost is not None:
            cost.charge(request, outcome.hit)
        record(per_client.setdefault(request.client_id, CacheStats()), request, outcome.hit)
    latency = cost.finalize() if cost is not None else None
    shard_latency = ()
    if cost is not None and per_shard:
        shard_latency = cost.shard_latencies() or cost_model.shard_latencies(per_shard)
    return {
        "stats": stats,
        "per_client": list(per_client.items()),
        "per_shard": per_shard,
        "latency": latency,
        "shard_latency": shard_latency,
        "rolling": roll.finalize() if roll is not None else None,
        "queueing": queueing.finalize() if queueing is not None else None,
    }


def engine_fields(result) -> dict:
    return {
        "stats": result.stats,
        "per_client": list(result.per_client.items()),
        "per_shard": result.per_shard,
        "latency": result.latency,
        "shard_latency": result.shard_latency,
        "rolling": result.rolling,
        "queueing": result.queueing,
    }


@pytest.mark.parametrize("kind,chunk_size", _SOURCES)
def test_every_registered_policy_matches_the_scalar_replay(kind, chunk_size):
    source, requests = _inputs(kind)
    names = list(available_policies())
    assert {"OPT", "LRU-REFERENCE", "SHARDED-REFERENCE"} <= set(names)

    policies = [_build(name) for name in names]
    results = _engine(policies, chunk_size).run(source)
    for name, policy, result in zip(names, policies, results):
        oracle = _oracle_build(name)
        expected = scalar_replay(oracle, policy, requests)
        assert engine_fields(result) == expected, name
        if name in REFERENCES:
            assert expected["stats"].evictions > 0, name
        if name == "CLIC":
            assert oracle.windows_completed >= 1
    if kind != "trace-spec":
        assert [client for client, _ in results[0].per_client.items()] == [
            "alpha",
            "beta",
        ]


@pytest.mark.parametrize("queueing", sorted(_QUEUEING))
@pytest.mark.parametrize("kind,chunk_size", _SOURCES)
def test_clusters_with_every_observer_match_the_scalar_replay(kind, chunk_size, queueing):
    source, requests = _inputs(kind)
    options = dict(
        cost_model=CostModel(device="hdd", page_span=2_000),
        rolling_window=ROLLING_WINDOW,
        queueing_model=_QUEUEING[queueing],
    )

    def build(name, kwargs):
        return create_policy(name, capacity=CAPACITY, **kwargs)

    clusters = [build("SHARDED", kwargs) for _, kwargs in _OBSERVED_CLUSTERS]
    results = _engine(clusters, chunk_size, **options).run(source)
    for (label, kwargs), cluster, result in zip(_OBSERVED_CLUSTERS, clusters, results):
        reference = build(*reference_case("SHARDED", kwargs))
        expected = scalar_replay(reference, cluster, requests, **options)
        assert expected["shard_latency"] and expected["queueing"].request_count
        assert engine_fields(result) == expected, label
