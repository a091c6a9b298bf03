"""Tests for the reference Space-Saving algorithm and its CLIC extension
(``tests/clic_reference.py``), which the C kernel's tracker is held to."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from tests.clic_reference import SpaceSaving, SpaceSavingTracker


class TestSpaceSaving:
    def test_tracks_at_most_k_items(self):
        ss = SpaceSaving(k=3)
        for item in range(100):
            ss.offer(item)
        assert len(ss) == 3

    def test_exact_when_distinct_items_fit(self):
        ss = SpaceSaving(k=10)
        stream = ["a"] * 5 + ["b"] * 3 + ["c"] * 2
        for item in stream:
            ss.offer(item)
        tracked = ss.tracked()
        assert tracked["a"].count == 5 and tracked["a"].error == 0
        assert tracked["b"].count == 3
        assert tracked["c"].count == 2

    def test_replacement_inherits_min_count_as_error(self):
        ss = SpaceSaving(k=2)
        ss.offer("a")
        ss.offer("a")
        ss.offer("b")
        replaced, _ = ss.offer("c")     # replaces "b" (the min, count 1)
        assert replaced == "b"
        entry = ss.get("c")
        assert entry.count == 2 and entry.error == 1
        assert entry.guaranteed_count == 1

    def test_count_overestimates_and_bounds_true_frequency(self):
        # Classic Space-Saving guarantee: count >= true frequency >= count - error.
        rng = random.Random(7)
        items = [rng.choices(range(50), weights=[1 / (i + 1) for i in range(50)])[0] for _ in range(5000)]
        truth = Counter(items)
        ss = SpaceSaving(k=10)
        for item in items:
            ss.offer(item)
        for item, entry in ss.tracked().items():
            assert entry.count >= truth[item]
            assert entry.guaranteed_count <= truth[item]

    def test_heavy_hitters_are_retained(self):
        # An item occurring more than N/k times must be tracked.
        rng = random.Random(3)
        stream = []
        for _ in range(2000):
            stream.append("HOT" if rng.random() < 0.4 else f"cold-{rng.randrange(1000)}")
        ss = SpaceSaving(k=20)
        for item in stream:
            ss.offer(item)
        assert "HOT" in ss
        assert ss.top(1)[0].item == "HOT"

    def test_processed_counter(self):
        ss = SpaceSaving(k=2)
        for item in "abcabc":
            ss.offer(item)
        assert ss.processed == 6

    def test_top_sorted_descending(self):
        ss = SpaceSaving(k=5)
        for item in "aaabbc":
            ss.offer(item)
        counts = [entry.count for entry in ss.top()]
        assert counts == sorted(counts, reverse=True)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            SpaceSaving(k=0)

    def test_lazy_heap_stays_bounded(self):
        """Regression: every increment pushed a stale heap entry, so the heap
        grew with the stream length (increments never trigger the lazy pops
        that replacements do); it must now stay O(k)."""
        ss = SpaceSaving(k=8)
        rng = random.Random(11)
        for _ in range(100_000):
            # Mostly increments of tracked items, with some churn mixed in.
            ss.offer(rng.randrange(8) if rng.random() < 0.9 else rng.randrange(5000))
        assert len(ss) <= 8
        assert ss.heap_size <= max(4 * ss.k, 32)

    def test_compaction_preserves_exact_behavior(self):
        """Compacting the lazy heap must not change which items are tracked,
        their counters, or which victims are replaced (including ties)."""
        rng = random.Random(23)
        stream = [
            rng.randrange(7) if rng.random() < 0.8 else rng.randrange(200)
            for _ in range(20_000)
        ]
        compacting = SpaceSaving(k=7)
        lazy = SpaceSaving(k=7)
        lazy._compact_limit = 10**9   # effectively disable compaction
        replacements = []
        for item in stream:
            replaced_a, _ = compacting.offer(item)
            replaced_b, _ = lazy.offer(item)
            replacements.append((replaced_a, replaced_b))
        assert all(a == b for a, b in replacements)
        assert compacting.tracked() == lazy.tracked()
        assert compacting.heap_size <= max(4 * 7, 32)
        assert lazy.heap_size > compacting.heap_size

    def test_clear(self):
        ss = SpaceSaving(k=2)
        ss.offer("a")
        ss.clear()
        assert len(ss) == 0 and ss.processed == 0


KEY_HOT = ("db2", ("stock",))
KEY_COLD = ("db2", ("orderline",))


class TestSpaceSavingTracker:
    def test_tracks_n_as_guaranteed_count(self):
        tracker = SpaceSavingTracker(k=4)
        for _ in range(5):
            tracker.record_request(KEY_HOT)
        snap = tracker.snapshot()
        assert snap[KEY_HOT].requests == 5

    def test_rereferences_only_counted_while_tracked(self):
        tracker = SpaceSavingTracker(k=1)
        tracker.record_request(KEY_HOT)
        # KEY_COLD is not tracked (k=1 and HOT holds the slot only after HOT's
        # arrival); a re-reference for an untracked key is dropped.
        tracker.record_read_rereference(KEY_COLD, distance=2)
        snap = tracker.snapshot()
        assert KEY_COLD not in snap or snap[KEY_COLD].read_rereferences == 0

    def test_rereference_for_tracked_key(self):
        tracker = SpaceSavingTracker(k=2)
        tracker.record_request(KEY_HOT)
        tracker.record_read_rereference(KEY_HOT, distance=4)
        snap = tracker.snapshot()
        assert snap[KEY_HOT].read_rereferences == 1
        assert snap[KEY_HOT].mean_distance == pytest.approx(4.0)

    def test_side_stats_reset_when_slot_recycled(self):
        tracker = SpaceSavingTracker(k=1)
        tracker.record_request(KEY_HOT)
        tracker.record_read_rereference(KEY_HOT, distance=2)
        # KEY_COLD arrives and replaces KEY_HOT in the single slot.
        tracker.record_request(KEY_COLD)
        # KEY_HOT returns: its side statistics must have been forgotten.
        tracker.record_request(KEY_HOT)
        snap = tracker.snapshot()
        assert snap[KEY_HOT].read_rereferences == 0

    def test_untracked_hint_sets_have_zero_priority(self):
        tracker = SpaceSavingTracker(k=1)
        tracker.record_request(KEY_HOT)
        priorities = tracker.priorities()
        assert priorities.get(KEY_COLD, 0.0) == 0.0

    def test_invalid_distance_rejected(self):
        tracker = SpaceSavingTracker(k=2)
        tracker.record_request(KEY_HOT)
        with pytest.raises(ValueError):
            tracker.record_read_rereference(KEY_HOT, distance=-1)

    def test_clear(self):
        tracker = SpaceSavingTracker(k=2)
        tracker.record_request(KEY_HOT)
        tracker.record_read_rereference(KEY_HOT, distance=1)
        tracker.clear()
        assert len(tracker) == 0
        assert tracker.snapshot() == {}

    def test_len_reports_tracked_hint_sets(self):
        tracker = SpaceSavingTracker(k=3)
        tracker.record_request(KEY_HOT)
        tracker.record_request(KEY_COLD)
        assert len(tracker) == 2
