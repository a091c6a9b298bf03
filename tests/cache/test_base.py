"""Tests for the policy base class, statistics and capacity validation."""

from __future__ import annotations

import pytest

from repro.cache.base import CachePolicy, CacheStats, validate_capacity
from repro.cache.lru import LRUPolicy
from repro.trace.columnar import ColumnarChunk

from tests.conftest import rd, wr
from tests.observer_reference import (
    HIT,
    MISS_ADMIT,
    MISS_BYPASS,
    AccessOutcome,
    record,
    record_outcome,
)


class TestAccessOutcome:
    def test_truthiness_is_the_hit_flag(self):
        assert bool(HIT)
        assert not bool(MISS_ADMIT)
        assert not bool(MISS_BYPASS)
        assert bool(AccessOutcome(True, evicted=(3,)))

    def test_equality_is_field_wise(self):
        assert AccessOutcome(False, admitted=True) == MISS_ADMIT
        assert AccessOutcome(False, admitted=True, evicted=(7,)) != MISS_ADMIT
        assert hash(AccessOutcome(False, admitted=True)) == hash(MISS_ADMIT)

    def test_comparison_with_bool_is_not_an_outcome_check(self):
        # AccessOutcome is not a bool: compare ``.hit`` (or truthiness), never
        # ``== True`` — this pins the NotImplemented fallback.
        assert (HIT == True) is False  # noqa: E712

    def test_singletons_carry_no_evictions(self):
        for outcome in (HIT, MISS_ADMIT, MISS_BYPASS):
            assert outcome.evicted == ()

    def test_record_outcome_counting_rules(self):
        stats = CacheStats()
        record_outcome(stats, rd(1), MISS_ADMIT)
        record_outcome(stats, rd(1), HIT)
        record_outcome(stats, rd(2), MISS_BYPASS)
        record_outcome(stats, wr(3), AccessOutcome(False, admitted=True, evicted=(1, 2)))
        assert stats.requests == 4
        assert stats.read_hits == 1
        assert stats.admissions == 2
        assert stats.bypasses == 1
        assert stats.evictions == 2


class TestValidateCapacity:
    def test_accepts_positive_int(self):
        assert validate_capacity(10) == 10

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            validate_capacity(0)
        with pytest.raises(ValueError):
            validate_capacity(-5)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            validate_capacity(2.5)


class TestCacheStats:
    def test_read_hit_ratio(self):
        stats = CacheStats()
        record(stats, rd(1), hit=True)
        record(stats, rd(2), hit=False)
        record(stats, rd(3), hit=True)
        assert stats.read_hit_ratio == pytest.approx(2 / 3)

    def test_read_hit_ratio_zero_reads(self):
        stats = CacheStats()
        record(stats, wr(1), hit=True)
        assert stats.read_hit_ratio == 0.0

    def test_writes_do_not_count_towards_read_hit_ratio(self):
        stats = CacheStats()
        record(stats, rd(1), hit=False)
        record(stats, wr(2), hit=True)
        assert stats.read_hit_ratio == 0.0
        assert stats.write_hits == 1

    def test_overall_hit_ratio(self):
        stats = CacheStats()
        record(stats, rd(1), hit=True)
        record(stats, wr(2), hit=False)
        assert stats.overall_hit_ratio == pytest.approx(0.5)

    def test_requests_count(self):
        stats = CacheStats()
        for i in range(3):
            record(stats, rd(i), hit=False)
        record(stats, wr(9), hit=False)
        assert stats.requests == 4

    def test_as_dict_round_trips_counters(self):
        stats = CacheStats(read_requests=10, read_hits=4)
        d = stats.as_dict()
        assert d["read_requests"] == 10
        assert d["read_hit_ratio"] == pytest.approx(0.4)


class TestCachePolicyBase:
    def test_capacity_exposed(self):
        assert LRUPolicy(7).capacity == 7

    def test_check_invariant_passes_for_valid_policy(self):
        policy = LRUPolicy(2)
        policy.batch_access(ColumnarChunk.from_requests([rd(page) for page in [1, 2, 3, 4]]))
        policy._check_invariant()

    def test_abstract_base_cannot_be_instantiated(self):
        with pytest.raises(TypeError):
            CachePolicy(4)  # type: ignore[abstract]

    def test_batch_access_is_the_one_replay_method(self):
        """A policy replays only through ``batch_access``, which has no
        default: a subclass without it cannot be built."""
        assert CachePolicy.__abstractmethods__ == {"batch_access", "contains", "__len__"}

        class NoReplay(CachePolicy):
            def contains(self, page):
                return False

            def __len__(self):
                return 0

        with pytest.raises(TypeError, match="batch_access"):
            NoReplay(4)
