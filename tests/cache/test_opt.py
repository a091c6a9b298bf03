"""Tests for the off-line optimal policy (Belady MIN on future reads).

Tests of the public surface run on the C kernel and on its reference
(``[kernel]``/``[reference]`` ids); tests that read the heap run on the
reference.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.arc import ARCPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.opt import NEVER, OPTPolicy
from repro.simulation.simulator import CacheSimulator
from repro.trace.columnar import ColumnarChunk, ColumnarSource

from tests import policy_reference
from tests.conftest import chunked, rd, wr
from tests.observer_reference import decode_outcomes, step

ReferenceOPT = policy_reference.OPTPolicy


@pytest.fixture(
    params=[
        (OPTPolicy, LRUPolicy, ARCPolicy),
        (ReferenceOPT, policy_reference.LRUPolicy, policy_reference.ARCPolicy),
    ],
    ids=["kernel", "reference"],
)
def classes(request):
    """(OPT, LRU, ARC) classes: all kernels or all references."""
    return request.param


class TestOPT:
    def test_access_before_prepare_raises(self, classes):
        opt_class = classes[0]
        opt = opt_class(2)
        with pytest.raises(RuntimeError):
            step(opt, rd(1), 0)

    def test_simple_belady_decision(self, classes):
        opt_class, lru_class, _ = classes
        # Pages: 1 2 3 1 2 3 with capacity 2.  OPT keeps the pages that are
        # read soonest; LRU thrashes on this pattern.
        requests = [rd(p) for p in (1, 2, 3, 1, 2, 3)]
        opt_result = CacheSimulator(opt_class(2)).run(requests)
        lru_result = CacheSimulator(lru_class(2)).run(requests)
        assert opt_result.stats.read_hits > lru_result.stats.read_hits

    def test_never_read_again_pages_are_bypassed(self, classes):
        opt_class = classes[0]
        requests = [rd(1), rd(2), rd(1), rd(2), rd(99)]   # 99 never read again
        opt = opt_class(2)
        result = CacheSimulator(opt).run(requests)
        assert not opt.contains(99)
        assert result.stats.bypasses >= 1

    def test_write_only_pages_are_worthless(self, classes):
        opt_class = classes[0]
        requests = [wr(5), wr(5), rd(1), rd(1)]
        opt = opt_class(1)
        result = CacheSimulator(opt).run(requests)
        assert not opt.contains(5)
        assert result.stats.read_hits == 1

    def test_opt_dominates_online_policies_on_random_workloads(self, classes):
        opt_class, lru_class, arc_class = classes
        """The defining property: OPT's read hit ratio upper-bounds every online policy."""
        rng = random.Random(123)
        for trial in range(3):
            requests = []
            for i in range(3000):
                if rng.random() < 0.7:
                    requests.append(rd(rng.randrange(50)))
                else:
                    requests.append(rd(50 + rng.randrange(500)))
            capacity = 40
            opt = CacheSimulator(opt_class(capacity)).run(requests).read_hit_ratio
            lru = CacheSimulator(lru_class(capacity)).run(requests).read_hit_ratio
            arc = CacheSimulator(arc_class(capacity)).run(requests).read_hit_ratio
            assert opt >= lru - 1e-9
            assert opt >= arc - 1e-9

    def test_capacity_never_exceeded(self, classes):
        opt_class = classes[0]
        rng = random.Random(77)
        requests = [rd(rng.randrange(100)) for _ in range(2000)]
        opt = opt_class(16)
        opt.prepare(requests)
        for chunk in chunked(requests, [1, 2, 3, 5, 8, 13]):
            opt.batch_access(chunk)
            assert len(opt) <= 16

    def test_shared_read_index_adoption(self, classes):
        opt_class = classes[0]
        requests = [rd(p) for p in (1, 2, 3, 1, 2, 3)]
        index = opt_class.build_read_index(requests)
        direct = opt_class(2)
        direct.prepare(requests)
        adopted = opt_class(2)
        adopted.adopt_read_index(index)
        for seq, request in enumerate(requests):
            # Full AccessOutcome equality: same hit *and* the same
            # admission/bypass/eviction event, request for request.
            assert step(direct, request, seq) == step(adopted, request, seq)

    def test_heap_stays_bounded_and_compaction_keeps_outcomes(self):
        """Regression: stale heap entries only left through _pop_farthest,
        so the heap grew with the stream (a capacity-10 OPT over 200k reads
        of 50 pages ended with 101,526 entries).  Compaction keeps it at
        most 2x capacity without changing a single outcome, in the
        reference and in the kernel."""

        class Uncompacted(ReferenceOPT):
            def _compact(self) -> None:
                pass

        rng = random.Random(5)
        requests = [rd(rng.randrange(50)) for _ in range(20_000)]
        index = OPTPolicy.build_read_index(requests)
        scalar, batched, reference = ReferenceOPT(10), OPTPolicy(10), Uncompacted(10)
        for policy in (scalar, batched, reference):
            policy.adopt_read_index(index)

        expected = [reference.access(request, seq) for seq, request in enumerate(requests)]
        assert len(reference._heap) > 1_000
        outcomes = []
        for seq, request in enumerate(requests):
            outcomes.append(scalar.access(request, seq))
            assert len(scalar._heap) <= 20
        assert outcomes == expected
        batch_outcomes = []
        for start in range(0, len(requests), 97):
            chunk = ColumnarChunk.from_requests(requests[start : start + 97], start)
            batch_outcomes.extend(decode_outcomes(batched.batch_access(chunk)))
        assert batch_outcomes == expected

    def test_index_holds_the_next_read_of_each_position(self):
        requests = [rd(1), wr(2), rd(2), wr(1), rd(3), rd(1), wr(2)]
        index = OPTPolicy.build_read_index(requests)
        assert index.next_read.tolist() == [5, 2, NEVER, 5, NEVER, NEVER, NEVER]
        # Any chunking of the same stream indexes alike.
        chunked = OPTPolicy.build_read_index(ColumnarSource(requests, chunk_requests=2))
        assert chunked.next_read.tolist() == index.next_read.tolist()
