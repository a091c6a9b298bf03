"""Cross-policy invariant suite: every registry policy, one set of laws.

Before this suite, core invariants (capacity bound, counter consistency,
determinism) were pinned ad hoc per policy file; a new policy — or a wrapper
like the sharded cluster — could join the registry without inheriting any of
them.  This suite derives its policy list from the registry itself
(:mod:`repro.cache.registry`), so anything registered is automatically held
to:

* **capacity** — cached pages never exceed capacity, after every request;
* **conservation** — hits + misses == requests, for reads and writes
  separately (and per client);
* **determinism** — replaying the same stream through a same-configured
  policy yields an identical :class:`SimulationResult`;
* **outcome conservation** — the outcome event stream is the single source
  of truth: summing its admission/eviction events reproduces
  the policy's cached-page count (``admissions - evictions == len(policy)``)
  and the stats the replay reports;
* **isolation** — two fresh instances replaying one stream in lockstep
  agree after every request, so a policy keeps no state outside its
  instance;
* **one replay loop** — :class:`CacheSimulator` is definitionally a
  one-policy :class:`MultiPolicySimulator` run.

SHARDED-wrapped variants and cost-model-priced runs are included: pricing
must never change replay outcomes, and a cluster is held to the same laws as
the policy it wraps.  So are the CLIC configurations the experiments run
beyond the exact hint table: the Space-Saving tracker (Figures 9-10), the
decay ablation and the outqueue ablation.  Every registered policy is also
replayed without its fused kernel: its pure-Python reference in
``tests/policy_reference.py`` (the reference cluster over reference shards
for ``SHARDED``), whose ``batch_access`` is the scalar lift over its
``access()``, must obey the same laws.  The laws step a policy one request
at a time through its ``batch_access`` (:func:`~tests.observer_reference
.step`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.base import CachePolicy
from repro.cache.registry import available_policies, create_policy
from repro.core.config import CLICConfig
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import (
    MultiPolicySimulator,
    ParallelSweepRunner,
    PolicySpec,
    SweepCell,
)
from repro.simulation.queueing import QueueingModel
from repro.simulation.request import RequestKind, read_request, write_request
from repro.simulation.simulator import CacheSimulator
from repro.workloads.arrivals import PoissonArrivals

from tests.observer_reference import step
from tests.policy_reference import REFERENCES, ReferenceCluster
from tests.strategies import request_streams

#: Constructor kwargs giving each registry policy a test-sized configuration.
_POLICY_KWARGS = {
    "CLIC": {"config": CLICConfig(window_size=20, charge_metadata=False)},
    "SHARDED": {"policy": "LRU", "shards": 3, "router": "hash"},
}

#: Sharded variants: the cluster must obey the same laws as what it wraps,
#: under both routers, including an offline (OPT) cluster reading the
#: stream-wide index (hash) or its own per-shard index (client).  The
#: registry's own SHARDED case is the LRU cluster under the hash router.
_CLIC_SHARD_KWARGS = {"config": CLICConfig(window_size=20, charge_metadata=False)}
_SHARDED_VARIANTS = [
    ("SHARDED[ARC]", {"policy": "ARC", "shards": 2, "router": "client"}),
    (
        "SHARDED[CLIC]",
        {"policy": "CLIC", "shards": 2, "router": "hash", "policy_kwargs": _CLIC_SHARD_KWARGS},
    ),
    (
        "SHARDED[CLIC,client]",
        {"policy": "CLIC", "shards": 2, "router": "client", "policy_kwargs": _CLIC_SHARD_KWARGS},
    ),
    ("SHARDED[TQ,client]", {"policy": "TQ", "shards": 2, "router": "client"}),
    ("SHARDED[OPT,hash]", {"policy": "OPT", "shards": 3, "router": "hash"}),
    ("SHARDED[OPT,client]", {"policy": "OPT", "shards": 2, "router": "client"}),
]

#: CLIC configurations the experiments run besides the exact hint table.
_CLIC_VARIANTS = [
    ("CLIC[topk4]", {"top_k": 4}),
    ("CLIC[decay]", {"decay": 0.5}),
    ("CLIC[no-outqueue]", {"outqueue_factor": 0.0}),
]

#: Capacity must exceed the shard count (each shard needs >= 1 page).
CAPACITY = 12


@dataclass(frozen=True)
class Case:
    """One policy configuration held to the laws."""

    label: str
    factory: Callable[..., CachePolicy]
    kwargs: dict[str, Any] = field(default_factory=dict)

    def build(self) -> CachePolicy:
        return self.factory(capacity=CAPACITY, **self.kwargs)

    @property
    def client_routed(self) -> bool:
        return self.kwargs.get("router") == "client"


def _registry_cases() -> list[Case]:
    """Every registered policy, the CLIC and sharded variants, and every
    registered policy again without its kernel."""
    cases = [
        Case(name, partial(create_policy, name), _POLICY_KWARGS.get(name, {}))
        for name in available_policies()
    ]
    cases.extend(
        Case(
            label,
            partial(create_policy, "CLIC"),
            {"config": CLICConfig(window_size=20, charge_metadata=False, **overrides)},
        )
        for label, overrides in _CLIC_VARIANTS
    )
    cases.extend(
        Case(label, partial(create_policy, "SHARDED"), kwargs)
        for label, kwargs in _SHARDED_VARIANTS
    )
    references: dict[str, Callable[..., CachePolicy]] = {
        **REFERENCES, "SHARDED": ReferenceCluster
    }
    cases.extend(
        Case(f"{name}[kernel-less]", references[name], _POLICY_KWARGS.get(name, {}))
        for name in available_policies()
    )
    return cases


CASES = _registry_cases()
CASE_IDS = [case.label for case in CASES]

STREAMS = request_streams(min_size=1, max_size=120)


def _disjoint_pages(stream):
    """Remap pages into per-client ranges (the documented multi-client
    precondition: clients never share page ids — the interleaver normally
    enforces it; client-affinity routing relies on it)."""
    from repro.simulation.request import IORequest

    offsets: dict[str, int] = {}
    remapped = []
    for request in stream:
        offset = offsets.setdefault(request.client_id, 10_000 * len(offsets))
        remapped.append(
            IORequest(
                page=request.page + offset,
                kind=request.kind,
                hints=request.hints,
                client_id=request.client_id,
            )
        )
    return remapped


def _run(case: Case, stream, cost_model=None):
    return CacheSimulator(case.build(), cost_model=cost_model).run(stream)


@pytest.mark.property
class TestRegistryInvariants:
    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS)
    def test_capacity_never_exceeded(self, case, stream):
        if case.client_routed:
            stream = _disjoint_pages(stream)
        policy = case.build()
        if policy.offline:
            policy.prepare(stream)
        for seq, request in enumerate(stream):
            step(policy, request, seq)
            assert len(policy) <= policy.capacity
            cached = list(policy.cached_pages())
            assert len(cached) == len(set(cached)) == len(policy)

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS)
    def test_counters_conserve_requests(self, case, stream):
        result = _run(case, stream)
        stats = result.stats
        reads = sum(1 for r in stream if r.kind is RequestKind.READ)
        writes = len(stream) - reads
        # hits + misses == requests, where misses = requests - hits >= 0.
        assert stats.read_requests == reads
        assert stats.write_requests == writes
        assert 0 <= stats.read_hits <= stats.read_requests
        assert 0 <= stats.write_hits <= stats.write_requests
        assert stats.requests == len(stream)
        # Per-client accounting must partition the totals exactly.
        assert sum(s.read_requests for s in result.per_client.values()) == reads
        assert sum(s.read_hits for s in result.per_client.values()) == stats.read_hits
        # Sharded runs: shards partition the stream.
        if result.per_shard:
            assert sum(s.requests for s in result.per_shard) == len(stream)
            assert sum(s.read_hits for s in result.per_shard) == stats.read_hits

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS)
    def test_same_stream_replay_is_identical(self, case, stream):
        first = _run(case, stream)
        second = _run(case, stream)
        assert first.stats.as_dict() == second.stats.as_dict()
        assert {c: s.as_dict() for c, s in first.per_client.items()} == {
            c: s.as_dict() for c, s in second.per_client.items()
        }
        assert [s.as_dict() for s in first.per_shard] == [
            s.as_dict() for s in second.per_shard
        ]

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS)
    def test_outcome_events_conserve_cached_pages(self, case, stream):
        """admissions - evictions == pages cached, from the event stream alone.

        The seed accounting drifted here for policies with hit-path drops and
        bypass-pushback (OPT) because counters were maintained ad hoc inside
        each policy; outcomes-as-events make the law checkable uniformly.
        """
        if case.client_routed:
            stream = _disjoint_pages(stream)
        policy = case.build()
        if policy.offline:
            policy.prepare(stream)
        admissions = evictions = bypasses = 0
        for seq, request in enumerate(stream):
            outcome = step(policy, request, seq)
            admissions += outcome.admitted
            bypasses += outcome.bypassed
            evictions += len(outcome.evicted)
            assert admissions - evictions == len(policy)
            assert not (outcome.admitted and outcome.bypassed)
            if outcome.admitted:
                assert policy.contains(request.page)
        # The replay's stats observer must agree with the raw event stream.
        result = _run(case, stream)
        assert result.stats.admissions == admissions
        assert result.stats.evictions == evictions
        assert result.stats.bypasses == bypasses
        assert result.stats.admissions - result.stats.evictions == len(policy)

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS)
    def test_instances_share_no_state(self, case, stream):
        """Two fresh instances fed one stream in lockstep agree after every
        request: a policy keeps no state outside its instance.

        The determinism law replays its two instances one after the other,
        so it misses state that is shared between instances but cleared in
        ``__init__``; interleaving the replays request by request exposes it.
        """
        if case.client_routed:
            stream = _disjoint_pages(stream)
        first, second = case.build(), case.build()
        if first.offline:
            first.prepare(stream)
            second.prepare(stream)
        for seq, request in enumerate(stream):
            assert step(first, request, seq) == step(second, request, seq)
            assert sorted(first.cached_pages()) == sorted(second.cached_pages())

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS)
    def test_single_policy_simulator_equals_engine(self, case, stream):
        """CacheSimulator is a one-policy engine run — results are identical."""
        model = CostModel(device="hdd", page_span=64)
        single = CacheSimulator(
            case.build(), cost_model=model, rolling_window=32
        ).run(stream)
        engine = MultiPolicySimulator(
            [case.build()], cost_model=model, rolling_window=32
        ).run(stream)[0]
        assert single.stats == engine.stats
        assert single.per_client == engine.per_client
        assert single.per_shard == engine.per_shard
        assert single.rolling == engine.rolling
        assert single.latency.as_dict() == engine.latency.as_dict()
        assert [s.as_dict() for s in single.shard_latency] == [
            s.as_dict() for s in engine.shard_latency
        ]

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS, device=st.sampled_from(["ssd", "hdd"]))
    def test_cost_model_never_changes_outcomes(self, case, stream, device):
        """Pricing is a second accounting pass: replay outcomes are identical."""
        unpriced = _run(case, stream)
        priced = _run(
            case, stream, cost_model=CostModel(device=device, page_span=64)
        )
        assert priced.stats.as_dict() == unpriced.stats.as_dict()
        assert priced.latency is not None
        assert priced.latency.request_count == len(stream)

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=STREAMS)
    def test_queueing_observer_never_changes_outcomes(self, case, stream):
        """Queueing is pure accounting: stats and latency are bit-identical
        with a :class:`QueueingObserver` attached vs detached."""
        model = CostModel(device="hdd", page_span=64)
        queueing = QueueingModel(
            arrivals=PoissonArrivals(rate_rps=8_000.0, seed=3), device="hdd"
        )
        detached = _run(case, stream, cost_model=model)
        attached = CacheSimulator(
            case.build(), cost_model=model, queueing_model=queueing
        ).run(stream)
        assert detached.queueing is None
        assert attached.stats.as_dict() == detached.stats.as_dict()
        assert {c: s.as_dict() for c, s in attached.per_client.items()} == {
            c: s.as_dict() for c, s in detached.per_client.items()
        }
        assert [s.as_dict() for s in attached.per_shard] == [
            s.as_dict() for s in detached.per_shard
        ]
        assert attached.latency.as_dict() == detached.latency.as_dict()
        assert attached.queueing is not None
        assert attached.queueing.request_count == len(stream)


def _queueing_sweep_cells() -> list[SweepCell]:
    """One cell per offered load, every registry policy (incl. SHARDED) in each."""
    specs = []
    for name in available_policies():
        kwargs = _POLICY_KWARGS.get(name, {})
        specs.append(PolicySpec(label=name, name=name, capacity=CAPACITY, kwargs=kwargs))
    for label, kwargs in _SHARDED_VARIANTS:
        if kwargs.get("router") == "client":
            continue  # the fixed stream below uses one client id
        specs.append(
            PolicySpec(label=label, name="SHARDED", capacity=CAPACITY, kwargs=kwargs)
        )
    base = QueueingModel(arrivals=PoissonArrivals(rate_rps=9_000.0, seed=7))
    return [
        SweepCell(x=load, specs=tuple(specs), queueing=base.scaled(load))
        for load in (0.5, 1.2)
    ]


def test_queueing_sweep_identical_across_jobs():
    """jobs=1 and jobs=2 report bit-identical queueing columns for every
    registered policy: cells replay whole inside one worker, so arrival
    clocks and queue state never cross a process boundary."""
    stream = [
        read_request(page=(seq * 7) % 23) if seq % 3 else write_request(page=seq % 11)
        for seq in range(400)
    ]
    cells = _queueing_sweep_cells()
    serial = ParallelSweepRunner(stream, jobs=1, cost_model=CostModel()).run(
        cells, parameter="offered_load"
    )
    parallel = ParallelSweepRunner(stream, jobs=2, cost_model=CostModel()).run(
        cells, parameter="offered_load"
    )
    assert serial.as_rows() == parallel.as_rows()
    for label, points in serial.series.items():
        for point in points:
            queueing = point.result.queueing
            assert queueing is not None, (label, point.x)
            assert queueing.request_count == len(stream)
