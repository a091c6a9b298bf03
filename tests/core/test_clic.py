"""Tests for the CLIC replacement policy (paper Figure 4 and Sections 3-5)."""

from __future__ import annotations

import pytest

from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import HintSet, make_hint_set
from repro.simulation.simulator import CacheSimulator
from repro.trace.columnar import ColumnarChunk

from tests.conftest import hint, rd, wr


def small_config(**overrides) -> CLICConfig:
    defaults = dict(window_size=10, decay=1.0, outqueue_factor=2.0, charge_metadata=False)
    defaults.update(overrides)
    return CLICConfig(**defaults)


HOT = hint(object_id="hot")
COLD = hint(object_id="cold")


def teach_priorities(
    policy: CLICPolicy,
    hot_pages=range(100, 105),
    filler_pages=range(200, 300),
    rebuild_heap=True,
):
    """Run one training window so HOT gets a high priority and COLD gets zero.

    HOT pages are read twice in quick succession (read re-references); COLD
    pages are read once each (no re-reference).  ``rebuild_heap=False``
    leaves the victim heap as the training left it, as an outside caller of
    ``force_window_boundary()`` would.
    """
    seq = 0
    requests = []
    for page in hot_pages:
        requests.append(rd(page, HOT))
        requests.append(rd(page, HOT))
    for page in filler_pages:
        requests.append(rd(page, COLD))
    for request in requests:
        policy.access(request, seq)
        seq += 1
    # Close the training window explicitly so priorities take effect.
    policy.priority_manager.force_window_boundary()
    if rebuild_heap:
        policy._rebuild_heap()
    return seq


def recency_list(policy: CLICPolicy, hints: HintSet):
    """The recency list of *hints*' hint set, looked up through its hint id."""
    return policy._lists[policy._ids[hints.key()]]


class TestFigure4Policy:
    def test_admits_while_cache_not_full(self):
        policy = CLICPolicy(capacity=4, config=small_config())
        for seq, page in enumerate([1, 2, 3]):
            outcome = policy.access(rd(page, COLD), seq)
            assert not outcome.hit and outcome.admitted
        assert len(policy) == 3
        assert all(policy.contains(p) for p in (1, 2, 3))

    def test_hit_reports_true_and_updates_metadata(self):
        policy = CLICPolicy(capacity=4, config=small_config())
        policy.access(rd(1, COLD), 0)
        assert policy.access(rd(1, HOT), 1).hit
        # Most recent request determines the page's hint set.
        seq, hint_id = policy._cached[1]
        assert policy._keys[hint_id] == HOT.key()
        assert seq == 1

    def test_equal_priority_request_is_not_cached_when_full(self):
        # With all priorities zero (no window completed), Pr(H) > m never
        # holds, so a full cache never evicts (Figure 4 line 12 uses strict >).
        policy = CLICPolicy(capacity=2, config=small_config(window_size=1000))
        policy.access(rd(1, COLD), 0)
        policy.access(rd(2, COLD), 1)
        outcome = policy.access(rd(3, COLD), 2)
        assert policy.contains(1) and policy.contains(2)
        assert not policy.contains(3)
        assert outcome.bypassed and not outcome.admitted

    def test_uncached_page_is_remembered_in_outqueue(self):
        policy = CLICPolicy(capacity=2, config=small_config(window_size=1000))
        policy.access(rd(1, COLD), 0)
        policy.access(rd(2, COLD), 1)
        policy.access(rd(3, COLD), 2)
        entry = policy.outqueue.get(3)
        assert entry is not None
        assert entry.seq == 2
        assert policy._keys[entry.hint_key] == COLD.key()

    def test_higher_priority_request_evicts_lowest_priority_oldest_page(self):
        # teach_priorities touches exactly 105 distinct pages, filling the cache.
        policy = CLICPolicy(capacity=105, config=small_config(window_size=1_000_000))
        seq = teach_priorities(policy)
        assert policy.hint_priority(HOT) > policy.hint_priority(COLD) == 0.0
        # Cache is full of HOT+COLD pages. A new HOT request must evict the
        # oldest COLD page (the lowest-priority, minimum-sequence page).
        oldest_cold = next(iter(recency_list(policy, COLD)))
        assert not policy.contains(999)
        policy.access(rd(999, HOT), seq)
        assert policy.contains(999)
        assert not policy.contains(oldest_cold)

    def test_low_priority_request_does_not_evict_higher_priority_pages(self):
        policy = CLICPolicy(capacity=10, config=small_config(window_size=1_000_000))
        # Fill the cache with HOT pages and teach a high priority for HOT.
        seq = 0
        for _ in range(2):
            for page in range(10):
                policy.access(rd(page, HOT), seq)
                seq += 1
        policy.priority_manager.force_window_boundary()
        policy._rebuild_heap()
        assert policy.hint_priority(HOT) > 0.0
        policy.access(rd(500, COLD), seq)
        assert not policy.contains(500)
        assert len(policy) == 10

    @pytest.mark.parametrize("path", ["access", "batch_access"])
    def test_outside_window_boundary_decides_the_next_miss(self, path):
        # Priorities changed by force_window_boundary() with no
        # _rebuild_heap() after it must decide the very next request, on the
        # scalar path and in the batch kernel alike.
        policy = CLICPolicy(capacity=105, config=small_config(window_size=1_000_000))
        seq = teach_priorities(policy, rebuild_heap=False)
        request = rd(999, HOT)
        if path == "access":
            outcome = policy.access(request, seq)
        else:
            chunk = ColumnarChunk.from_requests([request], start_seq=seq)
            (outcome,) = policy.batch_access(chunk).outcomes()
        # Page 200 is the oldest COLD page.
        assert outcome.evicted == (200,)
        assert policy.contains(999)
        assert not policy.contains(200)

    def test_evicted_page_lands_in_outqueue(self):
        policy = CLICPolicy(capacity=105, config=small_config(window_size=1_000_000))
        seq = teach_priorities(policy)
        oldest_cold = next(iter(recency_list(policy, COLD)))
        policy.access(rd(999, HOT), seq)
        entry = policy.outqueue.get(oldest_cold)
        assert entry is not None
        assert policy._keys[entry.hint_key] == COLD.key()

    def test_rerequest_moves_page_between_hint_set_lists(self):
        policy = CLICPolicy(capacity=4, config=small_config())
        policy.access(rd(1, COLD), 0)
        policy.access(rd(1, HOT), 1)
        assert 1 in recency_list(policy, HOT)
        assert 1 not in recency_list(policy, COLD)

    def test_capacity_invariant_never_violated(self):
        policy = CLICPolicy(capacity=8, config=small_config(window_size=5))
        seq = 0
        for round_ in range(50):
            for page in range(16):
                policy.access(rd(page, HOT if page % 2 else COLD), seq)
                seq += 1
                assert len(policy) <= policy.capacity

    def test_effective_capacity_charged_for_metadata(self):
        charged = CLICPolicy(capacity=1000, config=CLICConfig(charge_metadata=True))
        uncharged = CLICPolicy(capacity=1000, config=CLICConfig(charge_metadata=False))
        assert charged.effective_capacity < 1000
        assert uncharged.effective_capacity == 1000
        # The paper reports roughly 1% overhead for Noutq = 5C.
        assert charged.effective_capacity >= 980

    def test_outqueue_capacity_follows_config_factor(self):
        policy = CLICPolicy(capacity=100, config=small_config(outqueue_factor=5.0))
        assert policy.outqueue.capacity == 500


class TestHintAnalysisIntegration:
    def test_read_rereference_detected_through_cache(self):
        policy = CLICPolicy(capacity=4, config=small_config(window_size=100))
        policy.access(rd(1, HOT), 0)
        policy.access(rd(1, HOT), 5)
        stats = policy.priority_manager.tracker.snapshot()[HOT.key()]
        assert stats.read_rereferences == 1
        assert stats.mean_distance == pytest.approx(5.0)

    def test_read_rereference_detected_through_outqueue(self):
        policy = CLICPolicy(capacity=1, config=small_config(window_size=100))
        policy.access(rd(1, COLD), 0)     # cached
        policy.access(rd(2, HOT), 1)      # not cached -> outqueue
        policy.access(rd(2, HOT), 3)      # re-read while only in the outqueue
        stats = policy.priority_manager.tracker.snapshot()[HOT.key()]
        assert stats.read_rereferences == 1
        assert stats.mean_distance == pytest.approx(2.0)

    def test_write_rereference_is_not_credited(self):
        policy = CLICPolicy(capacity=4, config=small_config(window_size=100))
        policy.access(rd(1, HOT), 0)
        policy.access(wr(1, HOT), 5)      # write re-reference: no benefit
        stats = policy.priority_manager.tracker.snapshot()[HOT.key()]
        assert stats.read_rereferences == 0

    def test_rereference_credited_to_previous_hint_set(self):
        # The credit goes to the hint set attached to the *original* request.
        policy = CLICPolicy(capacity=4, config=small_config(window_size=100))
        policy.access(rd(1, COLD), 0)
        policy.access(rd(1, HOT), 4)
        snapshot = policy.priority_manager.tracker.snapshot()
        assert snapshot[COLD.key()].read_rereferences == 1
        assert snapshot.get(HOT.key()) is None or snapshot[HOT.key()].read_rereferences == 0

    def test_priorities_learned_favor_rereferenced_hint_set(self):
        policy = CLICPolicy(capacity=200, config=small_config(window_size=1_000_000))
        teach_priorities(policy)
        assert policy.hint_priority(HOT) > policy.hint_priority(COLD)

    def test_window_rollover_rebuilds_priorities(self):
        policy = CLICPolicy(capacity=16, config=small_config(window_size=6))
        seq = 0
        for _ in range(3):
            for page in (1, 2, 3):
                policy.access(rd(page, HOT), seq)
                seq += 1
        assert policy.priority_manager.windows_completed >= 1
        assert policy.hint_priority(HOT) > 0.0

    def test_top_k_mode_limits_tracked_hint_sets(self):
        config = small_config(window_size=1_000, top_k=2)
        policy = CLICPolicy(capacity=8, config=config)
        for seq, obj in enumerate(["a", "b", "c", "d", "e", "f"]):
            policy.access(rd(seq, hint(object_id=obj)), seq)
        assert len(policy.priority_manager.tracker) <= 2


class TestEndToEndBehaviour:
    def test_clic_beats_lru_on_hint_separable_workload(self, skewed_trace):
        from repro.cache.lru import LRUPolicy

        clic = CLICPolicy(capacity=200, config=CLICConfig(window_size=2000, charge_metadata=False))
        lru = LRUPolicy(capacity=200)
        clic_result = CacheSimulator(clic).run(skewed_trace)
        lru_result = CacheSimulator(lru).run(skewed_trace)
        assert clic_result.read_hit_ratio > lru_result.read_hit_ratio

    def test_rejects_invalid_capacity(self):
        with pytest.raises(ValueError):
            CLICPolicy(capacity=0)


class TestVictimSelectionProperty:
    """The lazy-heap ``_peek_victim`` must agree with a naive reference scan.

    The heap over hint-set lists is validated lazily (stale priorities and
    head sequence numbers are popped and re-pushed on demand), which is only
    correct if, at *every* point of a replay, its top matches the
    straightforward O(n) rule: minimum priority over all cached pages,
    oldest (smallest seq) page on ties.  The generated streams cross window
    boundaries (window_size=7, priorities re-estimated and the heap rebuilt
    many times per run) and re-request cached pages under different hint
    sets, moving pages between hint-set lists.
    """

    @staticmethod
    def naive_victim(policy: CLICPolicy):
        """O(n) reference: (min priority, then oldest seq) over cached pages.

        Priorities are read from the priority manager by hint-set key, not
        from the policy's per-id table.
        """
        best = None
        for page, (seq, hint_id) in policy._cached.items():
            priority = policy.priority_manager.priority(policy._keys[hint_id])
            candidate = (priority, seq, hint_id)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        return best

    @classmethod
    def assert_victim_matches_naive_scan(cls, policy: CLICPolicy) -> None:
        victim = policy._peek_victim()
        expected = cls.naive_victim(policy)
        if expected is None:
            assert victim is None
        else:
            assert victim is not None
            # (priority, seq) identify the victim page uniquely:
            # sequence numbers are distinct across cached pages.
            assert (victim[0], victim[1]) == (expected[0], expected[1])
            assert victim[2] == expected[2]

    def test_peek_victim_matches_naive_scan(self):
        from hypothesis import HealthCheck, given, settings

        from tests.strategies import page_hint_event_streams

        hints = [hint(object_id=name) for name in ("a", "b", "c")]

        @settings(
            max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
        )
        @given(stream=page_hint_event_streams(max_page=11, hint_count=3))
        def run(stream):
            policy = CLICPolicy(capacity=4, config=small_config(window_size=7))
            for seq, (page, hint_index, is_read) in enumerate(stream):
                request = (rd if is_read else wr)(page, hints[hint_index])
                policy.access(request, seq)
                self.assert_victim_matches_naive_scan(policy)

        run()

    def test_batch_kernel_peek_victim_matches_naive_scan(self):
        """The same streams through ``batch_access`` in random chunk splits.

        The kernel carries its own copy of the heap upkeep and lazy cleanup,
        so the heap it leaves after every chunk must still yield the
        reference victim.
        """
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from tests.strategies import page_hint_event_streams

        hints = [hint(object_id=name) for name in ("a", "b", "c")]

        @settings(
            max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
        )
        @given(
            stream=page_hint_event_streams(max_page=11, hint_count=3),
            sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=20),
        )
        def run(stream, sizes):
            policy = CLICPolicy(capacity=4, config=small_config(window_size=7))
            requests = [
                (rd if is_read else wr)(page, hints[hint_index])
                for page, hint_index, is_read in stream
            ]
            offset = 0
            index = 0
            while offset < len(requests):
                take = sizes[index % len(sizes)]
                chunk = ColumnarChunk.from_requests(
                    requests[offset : offset + take], start_seq=offset
                )
                policy.batch_access(chunk)
                self.assert_victim_matches_naive_scan(policy)
                offset += take
                index += 1

        run()
