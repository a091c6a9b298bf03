"""Tests for the shared-replay multi-policy engine and the parallel runner."""

from __future__ import annotations

import dataclasses
import random
import sys
import warnings
from functools import partial

import pytest

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
from repro.simulation.simulator import CacheSimulator
from repro.simulation.sweep import sweep_cache_sizes
from repro.workloads.arrivals import BurstyArrivals, PoissonArrivals

from repro.core.hints import make_hint_set
from repro.simulation.request import IORequest, RequestKind

from tests.policy_reference import LRUPolicy as ReferenceLRU


class _KernelBug(ReferenceLRU):
    """A policy whose kernel raises on its first request."""

    def access(self, request, seq):
        raise RuntimeError("kernel bug")

    def batch_access(self, chunk):
        raise RuntimeError("kernel bug")


#: One entry per _KernelBug built in this process.
_KERNEL_BUGS_BUILT: list[int] = []


def _build_kernel_bug() -> _KernelBug:
    _KERNEL_BUGS_BUILT.append(1)
    return _KernelBug(30)


#: Names of the policies built by _build_counted in this process.
_COUNTED_BUILDS: list[str] = []


def _build_counted(name: str, capacity: int):
    _COUNTED_BUILDS.append(name)
    return create_policy(name, capacity=capacity)


def _mixed_trace(rng: random.Random, clients=("alpha",), n=4000):
    """Reads and writes over hot/cold pages, optionally from several clients."""
    requests = []
    hints_by_client = {
        c: (make_hint_set(c, object_id="hot"), make_hint_set(c, object_id="cold"))
        for c in clients
    }
    for i in range(n):
        client = clients[i % len(clients)]
        hot, cold = hints_by_client[client]
        if rng.random() < 0.6:
            page, hints = rng.randrange(60), hot
        else:
            page, hints = 60 + rng.randrange(1200), cold
        kind = RequestKind.READ if rng.random() < 0.8 else RequestKind.WRITE
        requests.append(IORequest(page=page, kind=kind, hints=hints))
    return requests


def _build_all_policies(capacity: int):
    return [create_policy(name, capacity=capacity) for name in available_policies()]


class TestMultiPolicySimulator:
    @pytest.mark.parametrize("clients", [("alpha",), ("alpha", "beta", "gamma")])
    def test_identical_to_independent_runs_for_every_policy(self, rng, clients):
        """The defining property: one shared pass == N independent simulations."""
        requests = _mixed_trace(rng, clients=clients)
        names = list(available_policies())

        independent = {}
        for name in names:
            policy = create_policy(name, capacity=80)
            independent[name] = CacheSimulator(policy).run(requests)

        shared = MultiPolicySimulator(_build_all_policies(80)).run(requests)

        for name, result in zip(names, shared):
            expected = independent[name]
            assert result.policy_name == expected.policy_name
            assert result.capacity == expected.capacity
            assert result.stats == expected.stats, name
            assert result.per_client == expected.per_client, name

    def test_same_policy_at_many_capacities_shares_one_pass(self, rng):
        """OPT instances share one future-read index without diverging."""
        requests = _mixed_trace(rng)
        capacities = [20, 40, 80, 160]
        independent = [
            CacheSimulator(create_policy("OPT", capacity=c)).run(requests)
            for c in capacities
        ]
        shared = MultiPolicySimulator(
            [create_policy("OPT", capacity=c) for c in capacities]
        ).run(requests)
        for expected, result in zip(independent, shared):
            assert result.stats == expected.stats
            assert result.per_client == expected.per_client

    def test_empty_policy_list(self, rng):
        assert MultiPolicySimulator([]).run(_mixed_trace(rng, n=10)) == []

    @pytest.mark.parametrize("boundary_offset", [0, 1])
    def test_second_client_appearing_at_chunk_boundary(self, rng, boundary_offset):
        """The per-client fast path must hand over correctly at chunk edges.

        The replay loop runs a single-client fast path until a second client
        appears, which it detects chunk-by-chunk.  Build a stream whose
        second client first appears exactly at the CHUNK_SIZE boundary (and,
        for contrast, one request after it): the totals accumulated by the
        fast path must be re-attributed to the first client and per-client
        stats must match the per-request slow path of CacheSimulator.
        """
        chunk = MultiPolicySimulator.CHUNK_SIZE
        alpha = _mixed_trace(rng, clients=("alpha",), n=chunk + boundary_offset)
        beta = _mixed_trace(rng, clients=("beta",), n=700)
        requests = alpha + beta

        names = ["LRU", "OPT", "CLIC"]
        shared = MultiPolicySimulator(
            [create_policy(name, capacity=80) for name in names]
        ).run(requests)
        for name, result in zip(names, shared):
            expected = CacheSimulator(create_policy(name, capacity=80)).run(requests)
            assert result.stats == expected.stats, name
            assert set(result.per_client) == {"alpha", "beta"}
            assert result.per_client == expected.per_client, name

    def test_accepts_iterator_streams(self, rng):
        requests = _mixed_trace(rng, n=1000)
        expected = CacheSimulator(create_policy("LRU", capacity=50)).run(requests)
        (result,) = MultiPolicySimulator([create_policy("LRU", capacity=50)]).run(
            iter(requests)
        )
        assert result.stats == expected.stats

    def test_a_list_is_lifted_once_for_the_index_and_the_replay(self, rng, lifted):
        """OPT's index and the replay read the same lifted chunks: an
        n-request list passes n requests through ``from_requests`` in all."""
        requests = _mixed_trace(rng, n=2 * MultiPolicySimulator.CHUNK_SIZE + 100)
        names = ["OPT", "LRU", "OPT"]
        results = MultiPolicySimulator(
            [create_policy(name, capacity=60) for name in names]
        ).run(requests)
        assert sum(lifted) == len(requests)
        for name, result in zip(names, results):
            expected = CacheSimulator(create_policy(name, capacity=60)).run(requests)
            assert result.stats == expected.stats, name


class TestParallelSweepRunner:
    def test_jobs_do_not_change_results(self, rng):
        """jobs=1 and jobs=4 sweeps must be identical, point for point."""
        requests = _mixed_trace(rng, n=2000)
        serial = sweep_cache_sizes(
            requests, cache_sizes=[25, 50], policies=["LRU", "OPT", "CLIC"], jobs=1
        )
        parallel = sweep_cache_sizes(
            requests, cache_sizes=[25, 50], policies=["LRU", "OPT", "CLIC"], jobs=4
        )
        assert serial.labels() == parallel.labels()
        for label in serial.labels():
            assert serial.xs(label) == parallel.xs(label)
            for p_serial, p_parallel in zip(serial.series[label], parallel.series[label]):
                assert p_serial.result.stats == p_parallel.result.stats
                assert p_serial.result.per_client == p_parallel.result.per_client

    def test_cells_may_carry_their_own_streams(self, rng):
        stream_a = _mixed_trace(rng, n=800)
        stream_b = _mixed_trace(rng, n=800)
        spec = PolicySpec(label="LRU", name="LRU", capacity=40)
        cells = [
            SweepCell(x=0.0, specs=(spec,), requests=stream_a),
            SweepCell(x=1.0, specs=(spec,), requests=stream_b),
        ]
        sweep = ParallelSweepRunner(jobs=1).run(cells, parameter="stream")
        expected_a = CacheSimulator(create_policy("LRU", capacity=40)).run(stream_a)
        expected_b = CacheSimulator(create_policy("LRU", capacity=40)).run(stream_b)
        points = sweep.series["LRU"]
        assert points[0].result.stats == expected_a.stats
        assert points[1].result.stats == expected_b.stats

    def test_missing_stream_is_an_error(self):
        spec = PolicySpec(label="LRU", name="LRU", capacity=4)
        with pytest.raises(ValueError):
            ParallelSweepRunner(jobs=1).run(
                [SweepCell(x=0.0, specs=(spec,))], parameter="x"
            )

    def test_unpicklable_factory_falls_back_to_serial(self, rng):
        requests = _mixed_trace(rng, n=500)
        spec = PolicySpec(
            label="LRU", factory=lambda: create_policy("LRU", capacity=30)
        )
        runner = ParallelSweepRunner(requests, jobs=4)
        cells = [SweepCell(x=0.0, specs=(spec,)), SweepCell(x=1.0, specs=(spec,))]
        with pytest.warns(RuntimeWarning, match="serial"):
            sweep = runner.run(cells, parameter="x")
        expected = CacheSimulator(create_policy("LRU", capacity=30)).run(requests)
        assert sweep.series["LRU"][0].result.stats == expected.stats

    def test_unpicklable_stream_falls_back_to_serial(self, rng):
        """A stream the pool cannot pickle degrades to serial, not a crash."""
        requests = _mixed_trace(rng, n=400)
        poisoned = requests + [
            IORequest(
                page=1,
                kind=RequestKind.READ,
                hints=make_hint_set("c", f=lambda: None),  # unpicklable value
            )
        ]
        spec = PolicySpec(label="LRU", name="LRU", capacity=30)
        cells = [
            SweepCell(x=0.0, specs=(spec,), requests=poisoned),
            SweepCell(x=1.0, specs=(spec,), requests=poisoned),
        ]
        with pytest.warns(RuntimeWarning, match="serial"):
            sweep = ParallelSweepRunner(jobs=2).run(cells, parameter="x")
        assert len(sweep.series["LRU"]) == 2

    def test_worker_kernel_exception_propagates_once(self, rng):
        """A policy raising inside a worker fails the sweep with its own
        exception.  Regression: any pool exception made the whole sweep
        run a second time serially, behind a RuntimeWarning."""
        requests = _mixed_trace(rng, n=300)
        spec = PolicySpec(label="bug", factory=_build_kernel_bug)
        cells = [SweepCell(x=0.0, specs=(spec,)), SweepCell(x=1.0, specs=(spec,))]
        _KERNEL_BUGS_BUILT.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="kernel bug") as raised:
                ParallelSweepRunner(requests, jobs=2).run(cells, parameter="x")
        # Workers built the policies; no serial rerun built one here.
        assert _KERNEL_BUGS_BUILT == []
        if sys.version_info < (3, 11):
            return  # exception notes (PEP 678) need Python 3.11
        # The exception names the failing pass: the first worker's one cell.
        assert raised.value.__notes__ == ["in the replay pass of sweep cells x=0.0: 'bug'"]
        # Serially both cells share one pass, and the note names both.
        with pytest.raises(RuntimeError, match="kernel bug") as raised:
            ParallelSweepRunner(requests, jobs=1).run(cells, parameter="x")
        assert raised.value.__notes__ == [
            "in the replay pass of sweep cells x=0.0: 'bug'; x=1.0: 'bug'"
        ]

    def test_clic_config_cells_survive_pickling(self, rng):
        """CLIC cells (config kwargs) run under worker processes."""
        requests = _mixed_trace(rng, n=600)
        config = CLICConfig(window_size=300, charge_metadata=False)
        spec = PolicySpec(
            label="CLIC", name="CLIC", capacity=30, kwargs={"config": config}
        )
        sweep = ParallelSweepRunner(requests, jobs=2).run(
            [SweepCell(x=0.0, specs=(spec,)), SweepCell(x=1.0, specs=(spec,))],
            parameter="x",
        )
        assert len(sweep.series["CLIC"]) == 2
        assert sweep.series["CLIC"][0].result.stats == sweep.series["CLIC"][1].result.stats


#: Offered loads of the folded-sweep cells, as fractions of a base model.
_FOLD_LOADS = (0.5, 1.2, 2.0)

#: The folded-sweep cases, one per queue path: (base queueing model, cost
#: model, runner-level default load or None).
_FOLD_CASES = [
    pytest.param(
        QueueingModel(arrivals=PoissonArrivals(rate_rps=20_000.0, seed=5)),
        CostModel(),
        None,
        id="ssd-vector",
    ),
    pytest.param(
        QueueingModel(
            arrivals=PoissonArrivals(rate_rps=250.0, seed=5),
            device="hdd",
            page_span=1_300,
        ),
        CostModel(device="hdd", page_span=1_300),
        None,
        id="hdd-seek",
    ),
    pytest.param(
        QueueingModel(arrivals=BurstyArrivals.with_mean(20_000.0, seed=5)),
        CostModel(),
        1.2,
        id="bursty-default",
    ),
]


def _fold_specs() -> tuple[PolicySpec, ...]:
    """Every registered unsharded policy plus two hash-routed clusters."""
    config = CLICConfig(window_size=300, charge_metadata=False)
    specs = [
        PolicySpec(
            label=name,
            name=name,
            capacity=80,
            kwargs={"config": config} if name == "CLIC" else {},
        )
        for name in available_policies()
        if name != "SHARDED"
    ]
    specs.append(
        PolicySpec(
            label="SHARDED[LRU,hash]x4",
            name="SHARDED",
            capacity=80,
            kwargs={"policy": "LRU", "shards": 4, "router": "hash"},
        )
    )
    specs.append(
        PolicySpec(
            label="SHARDED[CLIC,hash]x2",
            name="SHARDED",
            capacity=80,
            kwargs={
                "policy": "CLIC",
                "shards": 2,
                "router": "hash",
                "policy_kwargs": {"config": config},
            },
        )
    )
    return tuple(specs)


def _result_view(result) -> dict:
    """Every accounting field of a result, as comparable plain values."""
    return {
        "stats": result.stats.as_dict(),
        "per_client": {
            client: stats.as_dict() for client, stats in result.per_client.items()
        },
        "per_shard": [stats.as_dict() for stats in result.per_shard],
        "latency": result.latency.as_dict() if result.latency else None,
        "shard_latency": [latency.as_dict() for latency in result.shard_latency],
        "queueing": result.queueing.as_dict() if result.queueing else None,
        # The raw dataclass also compares the histograms and integer totals.
        "queueing_fields": result.queueing,
        "rolling": result.rolling,
    }


class TestFoldedSweeps:
    """A sweep replays each distinct spec once per stream and gives every
    (cell, spec) slot the result of replaying that cell alone."""

    @pytest.mark.parametrize("base, cost_model, default_load", _FOLD_CASES)
    def test_folded_cells_equal_cells_replayed_alone(
        self, rng, base, cost_model, default_load
    ):
        requests = _mixed_trace(rng, clients=("alpha", "beta"), n=1_500)
        specs = _fold_specs()
        default = base.scaled(default_load) if default_load is not None else None
        cells = [
            SweepCell(x=load, specs=specs, queueing=base.scaled(load))
            for load in _FOLD_LOADS
        ]
        # Queueing off, or the runner's default (which the other cells
        # override, and whose model the 1.2 cell shares in the bursty case).
        cells.append(SweepCell(x=0.0, specs=specs))

        def runner() -> ParallelSweepRunner:
            return ParallelSweepRunner(
                requests,
                jobs=1,
                cost_model=cost_model,
                rolling_window=500,
                queueing=default,
            )

        folded = runner().run(cells, parameter="offered_load")
        for cell in cells:
            alone = runner().run([cell], parameter="offered_load")
            for spec in specs:
                [point] = [p for p in folded.series[spec.label] if p.x == cell.x]
                [expected] = alone.series[spec.label]
                assert _result_view(point.result) == _result_view(expected.result), (
                    spec.label,
                    cell.x,
                )
        for spec in specs:
            by_load = {point.x: point.result for point in folded.series[spec.label]}
            # The loads really differ, and the fourth cell follows the runner.
            assert by_load[0.5].queueing != by_load[2.0].queueing
            if default is None:
                assert by_load[0.0].queueing is None
            else:
                assert by_load[0.0].queueing == by_load[1.2].queueing

    def test_each_spec_builds_once_and_every_slot_owns_its_result(self, rng):
        requests = _mixed_trace(rng, clients=("alpha", "beta"), n=600)
        specs = (
            PolicySpec(label="LRU", factory=partial(_build_counted, "LRU", 40)),
            PolicySpec(label="ARC", factory=partial(_build_counted, "ARC", 40)),
        )
        base = QueueingModel(arrivals=PoissonArrivals(rate_rps=20_000.0, seed=3))
        cells = [
            SweepCell(x=load, specs=specs, queueing=base.scaled(load))
            for load in (0.5, 1.2, 2.0)
        ]
        _COUNTED_BUILDS.clear()
        sweep = ParallelSweepRunner(requests, jobs=1, cost_model=CostModel()).run(
            cells, parameter="offered_load"
        )
        assert sorted(_COUNTED_BUILDS) == ["ARC", "LRU"]
        for spec in specs:
            results = [point.result for point in sweep.series[spec.label]]
            assert len(results) == 3
            for name in ("stats", "per_client", "latency", "queueing"):
                values = [getattr(result, name) for result in results]
                assert len({id(value) for value in values}) == 3, (spec.label, name)
            clients = [stats for result in results for stats in result.per_client.values()]
            assert len({id(stats) for stats in clients}) == len(clients) == 6
            assert len({id(result) for result in results}) == 3
            # One replay, three loads: equal accounting, distinct queueing.
            assert results[0].stats == results[1].stats == results[2].stats
            assert results[0].queueing != results[2].queueing

    def test_a_spec_filling_two_slots_shares_no_mutable_container(self, rng):
        """Two cells with one queueing model list one cluster spec: the
        second slot's result is a copy, sharing no list, dict or mutable
        dataclass with the first (their finalized queueing stats included)."""
        requests = _mixed_trace(rng, clients=("alpha", "beta"), n=800)
        spec = PolicySpec(
            label="SHARDED[LRU,hash]x2",
            name="SHARDED",
            capacity=60,
            kwargs={"policy": "LRU", "shards": 2, "router": "hash"},
        )
        model = QueueingModel(
            arrivals=PoissonArrivals(rate_rps=250.0, seed=3), device="hdd", page_span=1_300
        )
        cells = [SweepCell(x=x, specs=(spec,), queueing=model) for x in (1.0, 2.0)]
        sweep = ParallelSweepRunner(
            requests, cost_model=CostModel(device="hdd", page_span=1_300), rolling_window=200
        ).run(cells, parameter="x")
        first, second = [point.result for point in sweep.series[spec.label]]
        for result in (first, second):
            assert result.per_client and result.per_shard and result.shard_latency
            assert result.latency and result.rolling and result.queueing
        assert _result_view(first) == _result_view(second)
        assert not _mutable_parts(first) & _mutable_parts(second)


def _mutable_parts(value: object) -> set[int]:
    """The ids of every list, dict and non-frozen dataclass reachable from
    *value* (through dataclass fields, tuples, lists and dicts)."""
    found: set[int] = set()
    seen: set[int] = set()
    stack = [value]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, dict):
            found.add(id(item))
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            if isinstance(item, list):
                found.add(id(item))
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            if not item.__dataclass_params__.frozen:
                found.add(id(item))
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
    return found


class TestPolicySpec:
    def test_requires_factory_or_name(self):
        with pytest.raises(ValueError):
            PolicySpec(label="broken").build()

    def test_builds_from_registry(self):
        policy = PolicySpec(label="LRU", name="LRU", capacity=7).build()
        assert policy.capacity == 7


class TestEnsureStreams:
    """Pre-materialization dedup: equal lazy sources are ensured once."""

    class CountingSpec:
        """A hashable stand-in for TraceSpec: equal keys share one ensure()."""

        calls: dict[str, int] = {}

        def __init__(self, key: str):
            self.key = key

        def __eq__(self, other):
            return isinstance(other, type(self)) and self.key == other.key

        def __hash__(self):
            return hash(self.key)

        def iter_columnar(self):  # pragma: no cover - never replayed here
            return iter(())

        def ensure(self):
            type(self).calls[self.key] = type(self).calls.get(self.key, 0) + 1

    def setup_method(self):
        self.CountingSpec.calls = {}

    def test_equal_specs_are_ensured_once(self):
        from repro.simulation.engine import _ensure_streams

        specs = [self.CountingSpec("a") for _ in range(5)]
        specs += [self.CountingSpec("b"), None, None]
        _ensure_streams(specs)
        assert self.CountingSpec.calls == {"a": 1, "b": 1}

    def test_unhashable_streams_dedup_by_identity(self):
        from repro.simulation.engine import _ensure_streams

        class UnhashableSpec(self.CountingSpec):
            __hash__ = None

        first, second = UnhashableSpec("u1"), UnhashableSpec("u2")
        _ensure_streams([first, first, second])
        assert self.CountingSpec.calls == {"u1": 1, "u2": 1}

    def test_plain_request_lists_are_skipped(self):
        from repro.simulation.engine import _ensure_streams

        _ensure_streams([[], None])  # nothing with ensure(): no error, no calls
        assert self.CountingSpec.calls == {}

    def test_streams_share_an_ensure_exactly_when_they_share_a_pass(self):
        """Equal hashable sources that are not columnar streams replay in
        a pass each (``_stream_group_key`` keys them by identity), so each
        is ensured once."""
        from repro.simulation.engine import _ensure_streams, _stream_group_key

        ensured = []

        class ObjectSpec:
            """Hashable, all instances equal, and not a columnar stream."""

            def __eq__(self, other):
                return isinstance(other, ObjectSpec)

            def __hash__(self):
                return 0

            def ensure(self):
                ensured.append(id(self))

        first, second = ObjectSpec(), ObjectSpec()
        assert _stream_group_key(first) != _stream_group_key(second)
        _ensure_streams([first, second, first])
        assert ensured == [id(first), id(second)]
