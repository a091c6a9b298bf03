"""Tests for the LRU baseline policy, on the C kernel and on its reference."""

from __future__ import annotations

import pytest

from repro.cache.lru import LRUPolicy

from tests import policy_reference
from tests.conftest import rd, wr
from tests.observer_reference import step


@pytest.fixture(params=[LRUPolicy, policy_reference.LRUPolicy], ids=["kernel", "reference"])
def lru_class(request):
    return request.param


class TestLRU:
    def test_hit_and_miss(self, lru_class):
        lru = lru_class(2)
        assert not step(lru, rd(1), 0).hit
        assert step(lru, rd(1), 1).hit

    def test_evicts_least_recently_used(self, lru_class):
        lru = lru_class(2)
        step(lru, rd(1), 0)
        step(lru, rd(2), 1)
        step(lru, rd(1), 2)      # page 1 is now more recent than page 2
        step(lru, rd(3), 3)      # evicts page 2
        assert lru.contains(1) and lru.contains(3)
        assert not lru.contains(2)

    def test_writes_count_as_uses(self, lru_class):
        lru = lru_class(2)
        step(lru, rd(1), 0)
        step(lru, rd(2), 1)
        step(lru, wr(1), 2)
        step(lru, rd(3), 3)
        assert lru.contains(1)
        assert not lru.contains(2)

    def test_capacity_never_exceeded(self, lru_class):
        lru = lru_class(3)
        for seq in range(100):
            step(lru, rd(seq % 10), seq)
            assert len(lru) <= 3

    def test_eviction_and_admission_outcomes(self, lru_class):
        lru = lru_class(1)
        first = step(lru, rd(1), 0)
        second = step(lru, rd(2), 1)
        assert first.admitted and not first.evicted
        assert second.admitted and second.evicted == (1,)

    def test_sequential_scan_yields_no_hits(self, lru_class):
        lru = lru_class(10)
        outcomes = [step(lru, rd(seq), seq) for seq in range(100)]
        assert not any(outcome.hit for outcome in outcomes)
