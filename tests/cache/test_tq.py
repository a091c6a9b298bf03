"""Tests for the TQ write-hint-aware policy.

Tests of the public surface run on the C kernel and on its reference
(``[kernel]``/``[reference]`` ids); tests that read the queues run on the
reference.
"""

from __future__ import annotations

import pytest

from repro.cache.lru import LRUPolicy
from repro.cache.tq import TQPolicy
from repro.simulation.simulator import CacheSimulator
from repro.simulation.request import IORequest

from tests import policy_reference
from tests.conftest import hint, rd, wr
from tests.observer_reference import step

ReferenceTQ = policy_reference.TQPolicy


@pytest.fixture(
    params=[(TQPolicy, LRUPolicy), (ReferenceTQ, policy_reference.LRUPolicy)],
    ids=["kernel", "reference"],
)
def classes(request):
    """(TQ, LRU) classes: both kernels or both references."""
    return request.param


REPLACEMENT = hint(request_type="replacement_write")
SYNCHRONOUS = hint(request_type="synchronous_write")
RECOVERY = hint(request_type="recovery_write")
READ = hint(request_type="read")


class TestClassification:
    def test_replacement_write_lands_in_high_queue(self):
        tq = ReferenceTQ(4)
        tq.access(wr(1, REPLACEMENT), 0)
        assert 1 in tq._high

    def test_synchronous_write_lands_in_high_queue(self):
        tq = ReferenceTQ(4)
        tq.access(wr(1, SYNCHRONOUS), 0)
        assert 1 in tq._high

    def test_recovery_write_is_bypassed(self, classes):
        tq = classes[0](4)
        outcome = step(tq, wr(1, RECOVERY), 0)
        assert not tq.contains(1)
        assert outcome.bypassed and not outcome.admitted

    def test_recovery_write_cached_when_configured(self):
        tq = ReferenceTQ(4, cache_recovery_writes=True)
        tq.access(wr(1, RECOVERY), 0)
        assert tq.contains(1)
        assert 1 in tq._low

    def test_read_lands_in_low_queue(self):
        tq = ReferenceTQ(4)
        tq.access(rd(1, READ), 0)
        assert 1 in tq._low

    def test_write_hint_on_read_request_is_ignored(self):
        # The write-hint classification only applies to writes.
        tq = ReferenceTQ(4)
        tq.access(rd(1, REPLACEMENT), 0)
        assert 1 in tq._low


class TestEvictionOrder:
    def test_low_queue_evicted_before_high_queue(self, classes):
        tq = classes[0](2)
        step(tq, wr(1, REPLACEMENT), 0)   # high
        step(tq, rd(2, READ), 1)          # low
        step(tq, rd(3, READ), 2)          # evicts page 2 (low LRU), keeps page 1
        assert tq.contains(1)
        assert not tq.contains(2)
        assert tq.contains(3)

    def test_high_queue_evicted_when_low_is_empty(self, classes):
        tq = classes[0](2)
        step(tq, wr(1, REPLACEMENT), 0)
        step(tq, wr(2, REPLACEMENT), 1)
        step(tq, wr(3, REPLACEMENT), 2)   # evicts page 1 (oldest in high)
        assert not tq.contains(1)
        assert tq.contains(2) and tq.contains(3)

    def test_requeue_follows_most_recent_request_class(self):
        tq = ReferenceTQ(4)
        tq.access(wr(1, REPLACEMENT), 0)
        assert 1 in tq._high
        tq.access(rd(1, READ), 1)
        assert 1 in tq._low and 1 not in tq._high

    def test_capacity_never_exceeded(self, classes):
        tq = classes[0](3)
        for seq in range(60):
            page = seq % 9
            req = wr(page, REPLACEMENT) if seq % 2 else rd(page, READ)
            step(tq, req, seq)
            assert len(tq) <= 3


class TestEndToEnd:
    def test_tq_beats_lru_when_write_hints_are_informative(self, classes):
        """Replacement-written pages are re-read soon; recovery writes are not.

        This is the scenario TQ's hard-coded heuristic targets, so its read hit
        ratio must beat LRU's.
        """
        import random

        rng = random.Random(42)
        requests: list[IORequest] = []
        hot_writes = list(range(200))          # evicted from tier 1, re-read soon
        recovery_pages = list(range(1000, 1400))
        for i in range(30_000):
            roll = rng.random()
            if roll < 0.30:
                page = rng.choice(hot_writes)
                requests.append(wr(page, REPLACEMENT))
            elif roll < 0.60:
                # Read back a recently replacement-written page.
                page = rng.choice(hot_writes)
                requests.append(rd(page, READ))
            elif roll < 0.85:
                requests.append(wr(rng.choice(recovery_pages), RECOVERY))
            else:
                requests.append(rd(2000 + rng.randrange(3000), READ))
        capacity = 150
        tq_class, lru_class = classes
        tq = CacheSimulator(tq_class(capacity)).run(requests).read_hit_ratio
        lru = CacheSimulator(lru_class(capacity)).run(requests).read_hit_ratio
        assert tq > lru
