"""Tests for the ARC policy.

Tests of the public surface run on the C kernel and on its reference
(``[kernel]``/``[reference]`` ids); tests that read the lists run on the
reference.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.arc import ARCPolicy
from repro.cache.lru import LRUPolicy
from repro.simulation.simulator import CacheSimulator

from tests import policy_reference
from tests.conftest import chunked, rd
from tests.observer_reference import step

ReferenceARC = policy_reference.ARCPolicy


@pytest.fixture(
    params=[(ARCPolicy, LRUPolicy), (ReferenceARC, policy_reference.LRUPolicy)],
    ids=["kernel", "reference"],
)
def classes(request):
    """(ARC, LRU) classes: both kernels or both references."""
    return request.param


class TestARCBasics:
    def test_hit_and_miss(self, classes):
        arc = classes[0](4)
        assert not step(arc, rd(1), 0).hit
        assert step(arc, rd(1), 1).hit

    def test_capacity_never_exceeded(self, classes):
        arc = classes[0](8)
        rng = random.Random(5)
        requests = [rd(rng.randrange(64)) for _ in range(2000)]
        for chunk in chunked(requests, [1, 2, 3, 5, 8, 13]):
            arc.batch_access(chunk)
            assert len(arc) <= 8

    def test_repeated_access_promotes_to_frequency_list(self):
        arc = ReferenceARC(4)
        arc.access(rd(1), 0)
        arc.access(rd(1), 1)
        assert 1 in arc._t2
        assert 1 not in arc._t1

    def test_ghost_hit_adapts_target(self):
        arc = ReferenceARC(2)
        # Put page 1 in T2, page 2 in T1, then force 2 out into the B1 ghosts.
        arc.access(rd(1), 0)
        arc.access(rd(1), 1)          # page 1 promoted to T2
        arc.access(rd(2), 2)          # page 2 enters T1
        arc.access(rd(3), 3)          # REPLACE evicts page 2 from T1 into B1
        assert 2 in arc._b1
        before = arc.target_t1_size
        arc.access(rd(2), 4)          # ghost hit in B1 -> p grows
        assert arc.target_t1_size > before
        assert arc.contains(2)

    def test_scan_resistance_beats_lru(self, classes):
        """A loop larger than the cache mixed with hot pages: ARC >= LRU."""
        arc_class, lru_class = classes
        rng = random.Random(11)
        requests = []
        for i in range(30_000):
            if i % 2 == 0:
                requests.append(rd(rng.randrange(8)))          # hot set
            else:
                requests.append(rd(100 + (i // 2) % 2000))      # long scan loop
        arc_result = CacheSimulator(arc_class(64)).run(requests)
        lru_result = CacheSimulator(lru_class(64)).run(requests)
        assert arc_result.read_hit_ratio >= lru_result.read_hit_ratio

    def test_reasonable_hit_ratio_on_skewed_workload(self, classes):
        """80% of reads go to 30 hot pages: a 40-page ARC keeps them."""
        rng = random.Random(9)
        requests = [
            rd(rng.randrange(30) if rng.random() < 0.8 else 30 + rng.randrange(1000))
            for _ in range(20_000)
        ]
        assert CacheSimulator(classes[0](40)).run(requests).read_hit_ratio > 0.7

    def test_total_directory_bounded(self):
        # |T1|+|T2|+|B1|+|B2| <= 2c for ARC.
        arc = ReferenceARC(16)
        rng = random.Random(3)
        for seq in range(5000):
            arc.access(rd(rng.randrange(200)), seq)
            directory = len(arc._t1) + len(arc._t2) + len(arc._b1) + len(arc._b2)
            assert directory <= 2 * 16 + 1
