"""Tests for the CLIC replacement policy (paper Figure 4 and Sections 3-5).

Scenarios that only use the policy's public surface run on both the C
kernel (``repro.core.clic``) and the scalar reference it is held to
(``tests/clic_reference.py``); those that inspect internal structures run on
the reference.
"""

from __future__ import annotations

import pytest

from repro.core.clic import CLICPolicy
from repro.core.config import CLICConfig
from repro.core.hints import HintSet
from repro.simulation.simulator import CacheSimulator
from repro.trace.columnar import ColumnarChunk

from tests.clic_reference import CLICPolicy as ReferenceCLIC
from tests.conftest import chunked, hint, rd, wr
from tests.observer_reference import decode_outcomes, step

#: Runs a test on the kernel and on the reference.
both = pytest.mark.parametrize(
    "policy_class", [CLICPolicy, ReferenceCLIC], ids=["kernel", "reference"]
)


def small_config(**overrides) -> CLICConfig:
    defaults = dict(window_size=10, decay=1.0, outqueue_factor=2.0, charge_metadata=False)
    defaults.update(overrides)
    return CLICConfig(**defaults)


HOT = hint(object_id="hot")
COLD = hint(object_id="cold")


#: Requests of :func:`teach_priorities`' training window: each of 5 HOT
#: pages twice, then 100 COLD pages once.
TRAINING = 110


def teach_priorities(policy, hot_pages=range(100, 105), filler_pages=range(200, 300)):
    """Run one training window so HOT gets a high priority and COLD gets zero.

    HOT pages are read twice in quick succession (read re-references); COLD
    pages are read once each (no re-reference).  *policy*'s window size must
    be :data:`TRAINING`, so the training closes the window and the learned
    priorities take effect.
    """
    requests = []
    for page in hot_pages:
        requests.append(rd(page, HOT))
        requests.append(rd(page, HOT))
    for page in filler_pages:
        requests.append(rd(page, COLD))
    policy.batch_access(ColumnarChunk.from_requests(requests))
    assert policy.windows_completed == 1
    return len(requests)


def recency_list(policy: ReferenceCLIC, hints: HintSet):
    """The recency list of *hints*' hint set, looked up through its hint id."""
    return policy._lists[policy._ids[hints.key()]]


class TestFigure4Policy:
    @both
    def test_admits_while_cache_not_full(self, policy_class):
        policy = policy_class(capacity=4, config=small_config())
        for seq, page in enumerate([1, 2, 3]):
            outcome = step(policy, rd(page, COLD), seq)
            assert not outcome.hit and outcome.admitted
        assert len(policy) == 3
        assert all(policy.contains(p) for p in (1, 2, 3))

    def test_hit_reports_true_and_updates_metadata(self):
        policy = ReferenceCLIC(capacity=4, config=small_config())
        policy.access(rd(1, COLD), 0)
        assert policy.access(rd(1, HOT), 1).hit
        # Most recent request determines the page's hint set.
        seq, hint_id = policy._cached[1]
        assert policy._keys[hint_id] == HOT.key()
        assert seq == 1

    @both
    def test_equal_priority_request_is_not_cached_when_full(self, policy_class):
        # With all priorities zero (no window completed), Pr(H) > m never
        # holds, so a full cache never evicts (Figure 4 line 12 uses strict >).
        policy = policy_class(capacity=2, config=small_config(window_size=1000))
        step(policy, rd(1, COLD), 0)
        step(policy, rd(2, COLD), 1)
        outcome = step(policy, rd(3, COLD), 2)
        assert policy.contains(1) and policy.contains(2)
        assert not policy.contains(3)
        assert outcome.bypassed and not outcome.admitted

    def test_uncached_page_is_remembered_in_outqueue(self):
        policy = ReferenceCLIC(capacity=2, config=small_config(window_size=1000))
        policy.access(rd(1, COLD), 0)
        policy.access(rd(2, COLD), 1)
        policy.access(rd(3, COLD), 2)
        entry = policy.outqueue.get(3)
        assert entry is not None
        assert entry.seq == 2
        assert policy._keys[entry.hint_key] == COLD.key()

    @both
    def test_higher_priority_request_evicts_lowest_priority_oldest_page(self, policy_class):
        # teach_priorities touches exactly 105 distinct pages, filling the cache.
        policy = policy_class(capacity=105, config=small_config(window_size=TRAINING))
        seq = teach_priorities(policy)
        assert policy.hint_priority(HOT) > policy.hint_priority(COLD) == 0.0
        # Cache is full of HOT+COLD pages. A new HOT request must evict the
        # oldest COLD page (the lowest-priority, minimum-sequence page):
        # page 200, the first filler.
        assert not policy.contains(999)
        outcome = step(policy, rd(999, HOT), seq)
        assert outcome.evicted == (200,)
        assert policy.contains(999)
        assert not policy.contains(200)

    @both
    def test_low_priority_request_does_not_evict_higher_priority_pages(self, policy_class):
        # Fill the cache with HOT pages and teach a high priority for HOT in
        # one window of exactly these 20 requests.
        policy = policy_class(capacity=10, config=small_config(window_size=20))
        seq = 0
        for _ in range(2):
            for page in range(10):
                step(policy, rd(page, HOT), seq)
                seq += 1
        assert policy.hint_priority(HOT) > 0.0
        step(policy, rd(500, COLD), seq)
        assert not policy.contains(500)
        assert len(policy) == 10

    def test_evicted_page_lands_in_outqueue(self):
        policy = ReferenceCLIC(capacity=105, config=small_config(window_size=TRAINING))
        seq = teach_priorities(policy)
        oldest_cold = next(iter(recency_list(policy, COLD)))
        policy.access(rd(999, HOT), seq)
        entry = policy.outqueue.get(oldest_cold)
        assert entry is not None
        assert policy._keys[entry.hint_key] == COLD.key()

    def test_rerequest_moves_page_between_hint_set_lists(self):
        policy = ReferenceCLIC(capacity=4, config=small_config())
        policy.access(rd(1, COLD), 0)
        policy.access(rd(1, HOT), 1)
        assert 1 in recency_list(policy, HOT)
        assert 1 not in recency_list(policy, COLD)

    @both
    def test_capacity_invariant_never_violated(self, policy_class):
        policy = policy_class(capacity=8, config=small_config(window_size=5))
        seq = 0
        for round_ in range(50):
            for page in range(16):
                step(policy, rd(page, HOT if page % 2 else COLD), seq)
                seq += 1
                assert len(policy) <= policy.capacity

    @both
    def test_effective_capacity_charged_for_metadata(self, policy_class):
        charged = policy_class(capacity=1000, config=CLICConfig(charge_metadata=True))
        uncharged = policy_class(capacity=1000, config=CLICConfig(charge_metadata=False))
        assert charged.effective_capacity < 1000
        assert uncharged.effective_capacity == 1000
        # The paper reports roughly 1% overhead for Noutq = 5C.
        assert charged.effective_capacity >= 980

    def test_outqueue_capacity_follows_config_factor(self):
        policy = ReferenceCLIC(capacity=100, config=small_config(outqueue_factor=5.0))
        assert policy.outqueue.capacity == 500


class TestHintAnalysisIntegration:
    # Each window below closes on its last request, so the learned
    # priority Pr = (Nr/N) / D, computed with the same float operations,
    # shows what the window credited.

    @both
    def test_read_rereference_detected_through_cache(self, policy_class):
        policy = policy_class(capacity=4, config=small_config(window_size=2))
        step(policy, rd(1, HOT), 0)
        step(policy, rd(1, HOT), 5)
        # N = 2, Nr = 1, D = 5.
        assert policy.current_priorities() == {HOT.key(): 0.5 / 5}

    @both
    def test_read_rereference_detected_through_outqueue(self, policy_class):
        policy = policy_class(capacity=1, config=small_config(window_size=3))
        step(policy, rd(1, COLD), 0)     # cached
        step(policy, rd(2, HOT), 1)      # not cached -> outqueue
        step(policy, rd(2, HOT), 3)      # re-read while only in the outqueue
        assert not policy.contains(2)
        # HOT: N = 2, Nr = 1, D = 2; COLD: no re-reference.
        assert policy.current_priorities() == {
            COLD.key(): 0.0,
            HOT.key(): 0.5 / 2,
        }

    @both
    def test_write_rereference_is_not_credited(self, policy_class):
        policy = policy_class(capacity=4, config=small_config(window_size=2))
        step(policy, rd(1, HOT), 0)
        step(policy, wr(1, HOT), 5)      # write re-reference: no benefit
        assert policy.current_priorities() == {HOT.key(): 0.0}

    @both
    def test_rereference_credited_to_previous_hint_set(self, policy_class):
        # The credit goes to the hint set attached to the *original* request.
        policy = policy_class(capacity=4, config=small_config(window_size=2))
        step(policy, rd(1, COLD), 0)
        step(policy, rd(1, HOT), 4)
        # COLD: N = 1, Nr = 1, D = 4; HOT: N = 1, no re-reference.
        assert policy.current_priorities() == {
            COLD.key(): 1 / 4,
            HOT.key(): 0.0,
        }

    @both
    def test_priorities_learned_favor_rereferenced_hint_set(self, policy_class):
        policy = policy_class(capacity=200, config=small_config(window_size=TRAINING))
        teach_priorities(policy)
        assert policy.hint_priority(HOT) > policy.hint_priority(COLD)

    @both
    def test_window_rollover_rebuilds_priorities(self, policy_class):
        policy = policy_class(capacity=16, config=small_config(window_size=6))
        seq = 0
        for _ in range(3):
            for page in (1, 2, 3):
                step(policy, rd(page, HOT), seq)
                seq += 1
        assert policy.windows_completed >= 1
        assert policy.hint_priority(HOT) > 0.0

    @both
    def test_windows_completed_counts_closed_windows(self, policy_class):
        policy = policy_class(capacity=4, config=small_config(window_size=5))
        for seq in range(23):
            step(policy, rd(seq % 6, HOT), seq)
            assert policy.windows_completed == (seq + 1) // 5

    @both
    def test_top_k_mode_limits_tracked_hint_sets(self, policy_class):
        objects = ["a", "b", "c", "d", "e", "f"]
        config = small_config(window_size=len(objects), top_k=2)
        policy = policy_class(capacity=8, config=config)
        for seq, obj in enumerate(objects):
            step(policy, rd(seq, hint(object_id=obj)), seq)
        # Each new hint set took the counter of the oldest minimum, so only
        # the last two were tracked when the window closed.
        assert policy.current_priorities() == {
            hint(object_id="e").key(): 0.0,
            hint(object_id="f").key(): 0.0,
        }

    def test_top_k_mode_tracker_holds_k_hint_sets(self):
        config = small_config(window_size=1_000, top_k=2)
        policy = ReferenceCLIC(capacity=8, config=config)
        for seq, obj in enumerate(["a", "b", "c", "d", "e", "f"]):
            policy.access(rd(seq, hint(object_id=obj)), seq)
        assert len(policy.priority_manager.tracker) == 2


class TestEndToEndBehaviour:
    def test_clic_beats_lru_on_hint_separable_workload(self, skewed_trace):
        from repro.cache.lru import LRUPolicy

        clic = CLICPolicy(capacity=200, config=CLICConfig(window_size=2000, charge_metadata=False))
        lru = LRUPolicy(capacity=200)
        clic_result = CacheSimulator(clic).run(skewed_trace)
        lru_result = CacheSimulator(lru).run(skewed_trace)
        assert clic_result.read_hit_ratio > lru_result.read_hit_ratio

    @both
    def test_rejects_invalid_capacity(self, policy_class):
        with pytest.raises(ValueError):
            policy_class(capacity=0)


class TestVictimSelectionProperty:
    """The lazy-heap victim must agree with a naive reference scan.

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
    def naive_victim(policy: ReferenceCLIC):
        """O(n) reference: ``(priority, seq, hint_id, page)`` of the cached
        page with the minimum priority, then the oldest seq.

        Priorities are read from the priority manager by hint-set key, not
        from the policy's per-id table.
        """
        best = None
        for page, (seq, hint_id) in policy._cached.items():
            priority = policy.priority_manager.priority(policy._keys[hint_id])
            candidate = (priority, seq, hint_id, page)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        return best

    @classmethod
    def assert_victim_matches_naive_scan(cls, policy: ReferenceCLIC) -> None:
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
            policy = ReferenceCLIC(capacity=4, config=small_config(window_size=7))
            for seq, (page, hint_index, is_read) in enumerate(stream):
                request = (rd if is_read else wr)(page, hints[hint_index])
                policy.access(request, seq)
                self.assert_victim_matches_naive_scan(policy)

        run()

    def test_kernel_evicts_the_naive_scan_victim(self):
        """The same streams through the C kernel's ``batch_access`` in
        random chunk splits: every page the kernel evicts is the naive-scan
        victim of the state the reference holds just before that request."""
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
            requests = [
                (rd if is_read else wr)(page, hints[hint_index])
                for page, hint_index, is_read in stream
            ]
            reference = ReferenceCLIC(capacity=4, config=small_config(window_size=7))
            victims = []
            for seq, request in enumerate(requests):
                victim = self.naive_victim(reference)
                outcome = reference.access(request, seq)
                victims.append((victim[3],) if outcome.evicted else ())
            kernel = CLICPolicy(capacity=4, config=small_config(window_size=7))
            evicted = [
                outcome.evicted
                for chunk in chunked(requests, sizes)
                for outcome in decode_outcomes(kernel.batch_access(chunk))
            ]
            assert evicted == victims

        run()
