"""Scalar==batch equivalence suite for every registered policy.

The batch kernel contract (:meth:`repro.cache.base.CachePolicy
.batch_access`) says a batch call must be outcome-for-outcome identical to
the per-request definition of the policy over the same requests — and must
leave the policy in the identical state.  This suite derives its policy list
from the registry (:func:`repro.cache.registry.available_policies`), so
every registered policy — each has a fused batch kernel (LRU, ARC, CLIC,
TQ, OPT and the sharded cluster) — is held to the contract over random
request streams and random chunk splits.  lintkit's
``batch-kernel-parity`` rule enforces that any policy overriding
``batch_access`` stays covered here.

Every paper policy's batch kernel is C code, so the scalar side replays its
pure-Python reference (``tests/policy_reference.py``) one request at a
time, and a cluster's replays the reference cluster over reference shards.

The engine-level half of the contract — the replay produces the same
results at any job count — is pinned by the sweep test at the bottom; that
the engine's full result equals a scalar replay is pinned by
``tests/simulation/test_engine_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.base import AccessOutcomeBatch, CachePolicy
from repro.cache.registry import available_policies, create_policy
from repro.core.config import CLICConfig
from repro.simulation.engine import ParallelSweepRunner, PolicySpec, SweepCell

from repro.core.hints import EMPTY_HINT_SET
from repro.simulation.request import IORequest

from tests.conftest import chunked
from tests.observer_reference import decode_outcomes, reference_route
from tests.policy_reference import reference_case, registered
from tests.strategies import hint_sets, io_requests, request_streams

pytestmark = pytest.mark.property

#: Constructor kwargs giving each registry policy a test-sized configuration.
_POLICY_KWARGS = {
    "CLIC": {"config": CLICConfig(window_size=20, charge_metadata=False)},
    "SHARDED": {"policy": "LRU", "shards": 3, "router": "hash"},
}

#: Sharded variants: the cluster's one-call kernel path for every (policy,
#: router) pair the cluster experiment runs, and OPT shards reading the
#: stream-wide index (hash) or the cluster's per-shard index (client: the
#: streams' two clients share page ids).
_CLIC_SHARD_KWARGS = {"config": CLICConfig(window_size=20, charge_metadata=False)}
_SHARDED_VARIANTS = [
    ("SHARDED[LRU,hash]", {"policy": "LRU", "shards": 3, "router": "hash"}),
    ("SHARDED[LRU,client]", {"policy": "LRU", "shards": 2, "router": "client"}),
    ("SHARDED[TQ,hash]", {"policy": "TQ", "shards": 3, "router": "hash"}),
    ("SHARDED[TQ,client]", {"policy": "TQ", "shards": 2, "router": "client"}),
    ("SHARDED[ARC,hash]", {"policy": "ARC", "shards": 2, "router": "hash"}),
    ("SHARDED[ARC,client]", {"policy": "ARC", "shards": 2, "router": "client"}),
    (
        "SHARDED[CLIC,hash]",
        {"policy": "CLIC", "shards": 2, "router": "hash", "policy_kwargs": _CLIC_SHARD_KWARGS},
    ),
    (
        "SHARDED[CLIC,client]",
        {"policy": "CLIC", "shards": 2, "router": "client", "policy_kwargs": _CLIC_SHARD_KWARGS},
    ),
    ("SHARDED[OPT,hash]", {"policy": "OPT", "shards": 3, "router": "hash"}),
    ("SHARDED[OPT,client]", {"policy": "OPT", "shards": 2, "router": "client"}),
]

#: CLIC variants beyond the default exact hint table: a Space-Saving tracker
#: small enough that its counters are recycled (top_k=4; the small hint
#: domain easily exceeds 4 keys), a degenerate k=1 tracker (recycling on
#: nearly every new hint set), a short decayed window so window closes and
#: heap rebuilds land mid-chunk, the default metadata
#: charge every experiment runs (the usable cache is smaller than the
#: outqueue's sizing capacity), and a zero-capacity outqueue (evictions and
#: bypasses remember nothing).
_CLIC_VARIANTS = [
    ("CLIC[topk4]", {"config": CLICConfig(window_size=20, top_k=4, charge_metadata=False)}),
    ("CLIC[topk1]", {"config": CLICConfig(window_size=13, top_k=1, charge_metadata=False)}),
    ("CLIC[decay]", {"config": CLICConfig(window_size=7, decay=0.5, charge_metadata=False)}),
    ("CLIC[charged]", {"config": CLICConfig(window_size=20)}),
    (
        "CLIC[no-outqueue]",
        {"config": CLICConfig(window_size=20, outqueue_factor=0.0, charge_metadata=False)},
    ),
]


#: TQ variants over streams carrying TQ's write-hint domain (the shared
#: streams' kind/obj hints never reach its replacement, recovery or
#: demotion branches): short write-queue lifetimes demote mid-chunk, and
#: cached recovery writes take the admit branch instead of the bypass.
_TQ_VARIANTS = [
    ("TQ[request_type]", {}),
    ("TQ[lifetime0]", {"write_queue_lifetime": 0}),
    ("TQ[lifetime1]", {"write_queue_lifetime": 1}),
    ("TQ[lifetime3]", {"write_queue_lifetime": 3}),
    ("TQ[cache_recovery]", {"cache_recovery_writes": True}),
]


def _registry_cases() -> list[tuple[str, str, dict]]:
    cases = [
        (name, name, _POLICY_KWARGS.get(name, {})) for name in available_policies()
    ]
    cases.extend((label, "SHARDED", kwargs) for label, kwargs in _SHARDED_VARIANTS)
    cases.extend((label, "CLIC", kwargs) for label, kwargs in _CLIC_VARIANTS)
    return cases


CASES = _registry_cases()
CASE_IDS = [case[0] for case in CASES]

CAPACITY = 12

STREAMS = request_streams(min_size=1, max_size=200)

#: TQ's request_type domain: both replacement values, the recovery value,
#: a value TQ ignores, and requests without hints.  Streams are at least 40
#: requests long, so that every example overflows the cache and the
#: queue a write class lands in decides evictions.
REQUEST_TYPE_HINTS = st.one_of(
    st.just(EMPTY_HINT_SET),
    hint_sets(
        names=("request_type",),
        values=st.sampled_from(
            ["replacement_write", "synchronous_write", "recovery_write", "other"]
        ),
    ),
)
TQ_STREAMS = st.lists(
    io_requests(max_page=20, hints=REQUEST_TYPE_HINTS), min_size=40, max_size=200
)

#: Random chunk splits: sizes drawn until the stream is consumed, so the
#: batch path sees chunk boundaries everywhere (including size-1 chunks).
CHUNK_SIZES = st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=20)


def _build(name: str, kwargs: dict) -> CachePolicy:
    return create_policy(name, capacity=CAPACITY, **kwargs)


@pytest.fixture(scope="module", autouse=True)
def _references():
    """Register the references for the scalar sides of this module."""
    with registered():
        yield


@pytest.mark.parametrize(("name", "kwargs"), [c[1:] for c in CASES], ids=CASE_IDS)
@given(stream=STREAMS, sizes=CHUNK_SIZES)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_access_matches_scalar(name, kwargs, stream, sizes):
    _assert_batch_matches_scalar(name, kwargs, stream, sizes)


@pytest.mark.parametrize("kwargs", [v[1] for v in _TQ_VARIANTS], ids=[v[0] for v in _TQ_VARIANTS])
@given(stream=TQ_STREAMS, sizes=CHUNK_SIZES)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_tq_batch_access_matches_scalar_on_write_hints(kwargs, stream, sizes):
    _assert_batch_matches_scalar("TQ", kwargs, stream, sizes)


def _assert_batch_matches_scalar(
    name: str, kwargs: dict, stream: list[IORequest], sizes: list[int]
) -> None:
    scalar = _build(*reference_case(name, kwargs))
    batched = _build(name, kwargs)
    if scalar.offline:
        scalar.prepare(stream)
        batched.prepare(stream)

    scalar_outcomes = [
        scalar.access(request, seq) for seq, request in enumerate(stream)
    ]
    batch_outcomes = []
    for chunk in chunked(stream, sizes):
        batch = batched.batch_access(chunk)
        assert isinstance(batch, AccessOutcomeBatch)
        assert len(batch) == len(chunk)
        batch_outcomes.extend(decode_outcomes(batch))

    assert batch_outcomes == scalar_outcomes
    assert len(batched) == len(scalar)
    assert sorted(batched.cached_pages()) == sorted(scalar.cached_pages())


@pytest.mark.parametrize(
    "kwargs", [v[1] for v in _SHARDED_VARIANTS], ids=[v[0] for v in _SHARDED_VARIANTS]
)
@given(stream=STREAMS, sizes=CHUNK_SIZES)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_columns_match_scalar_outcomes(kwargs, stream, sizes):
    """A kernel cluster's batch, column by column, request by request: its
    ``shard`` column is the reference router's shard, and its flags and CSR
    evictions are what that shard's reference reports for the request."""
    cluster = _build("SHARDED", kwargs)
    reference = _build(*reference_case("SHARDED", kwargs))
    if cluster.offline:
        cluster.prepare(stream)
        reference.prepare(stream)
    route = reference_route(cluster.router)
    shards = reference.shards
    for chunk in chunked(stream, sizes):
        batch = cluster.batch_access(chunk)
        assert batch.shard.dtype == np.int64 and len(batch.shard) == len(chunk)
        offsets = batch.evicted_offsets.tolist()
        assert offsets[0] == 0 and offsets[-1] == batch.eviction_count
        for i, (request, seq) in enumerate(zip(chunk.requests(), chunk.seq.tolist())):
            shard = route(request)
            assert batch.shard[i] == shard
            outcome = shards[shard].access(request, seq)
            assert bool(batch.hit[i]) == outcome.hit
            assert bool(batch.admitted[i]) == outcome.admitted
            assert bool(batch.bypassed[i]) == outcome.bypassed
            evicted = batch.evicted_pages[offsets[i] : offsets[i + 1]]
            assert tuple(evicted.tolist()) == outcome.evicted


@pytest.mark.slow
def test_columnar_sweep_jobs_invariant():
    """jobs=1 and jobs=2 produce identical sweeps (list input, lifted into
    columnar chunks)."""
    from repro.workloads.standard import standard_trace

    trace = standard_trace("DB2_C60", target_requests=6_000)
    requests = trace.requests()
    cells = [
        SweepCell(
            x=capacity,
            specs=(
                PolicySpec(label="LRU", name="LRU", capacity=capacity),
                PolicySpec(label="TQ", name="TQ", capacity=capacity),
                PolicySpec(
                    label="SHARDED[LRU]",
                    name="SHARDED",
                    capacity=capacity,
                    kwargs={"policy": "LRU", "shards": 2, "router": "hash"},
                ),
            ),
        )
        for capacity in (32, 64)
    ]

    def run(jobs):
        runner = ParallelSweepRunner(requests=requests, jobs=jobs)
        return runner.run(cells, parameter="capacity")

    serial = run(1)
    parallel = run(2)
    assert serial.labels() == parallel.labels()
    for label in serial.labels():
        assert serial.curve(label) == parallel.curve(label)
        for a, b in zip(serial.series[label], parallel.series[label]):
            assert a.result.stats.as_dict() == b.result.stats.as_dict()
