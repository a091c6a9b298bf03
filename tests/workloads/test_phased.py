"""Tests for the non-stationary phased workload subsystem."""

from __future__ import annotations

import pickle

import pytest

from repro.trace.cache import TraceSpec, default_trace_cache
from repro.workloads.phased import (
    PHASE_PLANS,
    Phase,
    PhaseClient,
    PhasedTraceStream,
    PhasePlan,
    build_phase_plan,
    default_page_stride,
    phased_trace,
)
from repro.workloads.standard import StandardTraceStream

from tests.conftest import stream_requests


def tiny_plan(total: int = 900) -> PhasePlan:
    return build_phase_plan("tenant", total, seed=5)


class TestPlanModel:
    def test_named_plans_build_and_preserve_totals(self):
        for name in PHASE_PLANS:
            plan = build_phase_plan(name, 1_000, seed=3)
            assert plan.name == name
            assert plan.total_requests == 1_000

    def test_unknown_plan_rejected(self):
        with pytest.raises(KeyError, match="unknown phase plan"):
            build_phase_plan("nope", 1_000)

    def test_unknown_trace_rejected(self):
        with pytest.raises(KeyError, match="unknown standard traces"):
            PhasePlan("bad", (Phase("p", 10, (PhaseClient("NOPE"),)),))

    def test_empty_and_invalid_phases_rejected(self):
        with pytest.raises(ValueError, match="at least one phase"):
            PhasePlan("empty", ())
        with pytest.raises(ValueError, match="requests must be >= 1"):
            Phase("p", 0, (PhaseClient("DB2_C60"),))
        with pytest.raises(ValueError, match="at least one client"):
            Phase("p", 10, ())

    def test_offsets_and_phase_lookup(self):
        plan = tiny_plan(900)
        assert plan.phase_offsets() == [0, 300, 600]
        assert plan.shift_offsets() == [300, 600]
        assert plan.phase_at(0).name == "solo"
        assert plan.phase_at(299).name == "solo"
        assert plan.phase_at(300).name == "shared"
        assert plan.phase_at(899).name == "solo-again"
        assert plan.phase_at(10_000).name == "solo-again"

    def test_distinct_clients_first_appearance_order(self):
        plan = tiny_plan()
        keys = [client.key() for client in plan.distinct_clients()]
        assert len(keys) == len(set(keys)) == 2
        assert keys[0][0] == "DB2_C60"  # the resident appears first

    def test_plan_is_hashable_and_picklable(self):
        plan = tiny_plan()
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert hash(tiny_plan()) == hash(plan)


class TestPhasedStream:
    def test_deterministic(self):
        plan = tiny_plan()
        assert phased_trace(plan).requests() == phased_trace(plan).requests()

    def test_single_use(self):
        stream = PhasedTraceStream(tiny_plan())
        list(stream)
        with pytest.raises(RuntimeError, match="single-use"):
            list(stream)

    def test_emits_exactly_the_plan_length(self):
        plan = tiny_plan(901)  # uneven split exercises the remainder logic
        assert len(phased_trace(plan)) == 901

    def test_solo_plan_matches_standard_stream(self):
        """A one-phase, one-client plan is exactly the standard stream."""
        plan = PhasePlan(
            "solo", (Phase("only", 700, (PhaseClient("DB2_C60", 7, "x"),)),)
        )
        assert list(PhasedTraceStream(plan)) == list(
            StandardTraceStream("DB2_C60", seed=7, target_requests=700, client_id="x")
        )

    def test_tenant_pages_disjoint_and_round_robin(self):
        plan = tiny_plan(900)
        stream = PhasedTraceStream(plan)
        stride = stream.page_stride
        requests = list(stream)
        ranges = {r.client_id: set() for r in requests}
        for request in requests:
            ranges[request.client_id].add(request.page // stride)
        assert all(len(slots) == 1 for slots in ranges.values())
        assert len({next(iter(s)) for s in ranges.values()}) == len(ranges)
        # The shared phase alternates tenants request by request.
        shared = requests[300:600]
        assert [r.client_id for r in shared[:4]] == [
            shared[0].client_id,
            shared[1].client_id,
            shared[0].client_id,
            shared[1].client_id,
        ]
        assert shared[0].client_id != shared[1].client_id

    def test_resident_stream_continues_across_phases(self):
        """A tenant spanning phases continues; it does not restart."""
        plan = tiny_plan(900)
        resident = plan.phases[0].clients[0]
        requests = [
            r
            for r in PhasedTraceStream(plan)
            if r.client_id == resident.resolved_client_id()
        ]
        solo = list(
            StandardTraceStream(
                resident.trace,
                seed=resident.seed,
                target_requests=len(requests),
                client_id=resident.resolved_client_id(),
            )
        )
        assert requests == solo

    def test_page_overflow_raises_instead_of_aliasing(self):
        plan = tiny_plan()
        with pytest.raises(ValueError, match="overflows the per-tenant page stride"):
            list(PhasedTraceStream(plan, page_stride=10))

    def test_metadata_shape(self):
        import json

        plan = tiny_plan(900)
        stream = PhasedTraceStream(plan)
        list(stream)
        metadata = stream.metadata()
        assert metadata["phase_plan"] == "tenant"
        assert metadata["phase_offsets"] == [0, 300, 600]
        assert metadata["total_requests"] == 900
        assert len(metadata["tenants"]) == 2
        assert all("first_tier_hit_ratio" in t for t in metadata["tenants"])
        assert metadata["page_stride"] == default_page_stride(plan)
        json.dumps(metadata)  # must survive the binary writer's JSON META

    def test_churn_replacement_is_a_distinct_client(self):
        plan = build_phase_plan("churn", 600, seed=5)
        clients = {r.client_id for r in PhasedTraceStream(plan)}
        assert len(clients) == 2


class TestPhasedTraceCache:
    def test_spec_round_trips_through_the_cache(self):
        plan = tiny_plan(600)
        spec = TraceSpec.for_plan(plan)
        spec.ensure()
        streamed = spec.open()
        mem = phased_trace(plan)
        assert stream_requests(streamed) == mem.requests()
        assert streamed.metadata == mem.metadata

    def test_cache_key_hashes_the_schedule(self):
        cache = default_trace_cache()
        base = TraceSpec.for_plan(tiny_plan(600))
        same = TraceSpec.for_plan(tiny_plan(600))
        other_total = TraceSpec.for_plan(tiny_plan(660))
        other_seed = TraceSpec.for_plan(build_phase_plan("tenant", 600, seed=6))
        other_plan = TraceSpec.for_plan(build_phase_plan("churn", 600, seed=5))
        assert cache.path_for(base) == cache.path_for(same)
        distinct = {
            cache.path_for(spec)
            for spec in (base, other_total, other_seed, other_plan)
        }
        assert len(distinct) == 4

    def test_spec_is_picklable_and_hashable(self):
        spec = TraceSpec.for_plan(tiny_plan(600))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and hash(clone) == hash(spec)
