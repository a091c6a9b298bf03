"""Tests for per-hint-set statistics and the priority formula (Section 3)."""

from __future__ import annotations

import pytest

from repro.core.statistics import HintSetStats, compute_priority

from tests.clic_reference import HintTable


KEY_A = ("db2", ("stock", "replacement_write"))
KEY_B = ("db2", ("orderline", "read"))


class TestHintSetStats:
    def test_read_hit_rate_is_nr_over_n(self):
        stats = HintSetStats(requests=10, read_rereferences=4, distance_total=40.0)
        assert stats.read_hit_rate == pytest.approx(0.4)

    def test_read_hit_rate_zero_requests(self):
        assert HintSetStats().read_hit_rate == 0.0

    def test_mean_distance(self):
        stats = HintSetStats(requests=10, read_rereferences=4, distance_total=40.0)
        assert stats.mean_distance == pytest.approx(10.0)

    def test_mean_distance_no_rereferences(self):
        assert HintSetStats(requests=5).mean_distance == 0.0

    def test_priority_is_benefit_over_cost(self):
        # fhit = 0.4, D = 10 -> Pr = 0.04  (Equation 2)
        stats = HintSetStats(requests=10, read_rereferences=4, distance_total=40.0)
        assert stats.priority == pytest.approx(0.04)

    def test_priority_zero_without_rereferences(self):
        assert HintSetStats(requests=100).priority == 0.0

    def test_priority_prefers_quick_rereferences(self):
        # Same hit rate, shorter re-reference distance -> higher priority.
        slow = HintSetStats(requests=10, read_rereferences=5, distance_total=500.0)
        fast = HintSetStats(requests=10, read_rereferences=5, distance_total=50.0)
        assert fast.priority > slow.priority

    def test_priority_prefers_higher_hit_rate(self):
        low = HintSetStats(requests=100, read_rereferences=5, distance_total=50.0)
        high = HintSetStats(requests=10, read_rereferences=5, distance_total=50.0)
        assert high.priority > low.priority

    def test_compute_priority_matches_property(self):
        stats = HintSetStats(requests=8, read_rereferences=2, distance_total=16.0)
        assert compute_priority(stats) == stats.priority


class TestHintTable:
    def test_record_request_counts_n(self):
        table = HintTable()
        for _ in range(3):
            table.record_request(KEY_A)
        assert table.get(KEY_A).requests == 3

    def test_record_rereference_counts_nr_and_distance(self):
        table = HintTable()
        table.record_request(KEY_A)
        table.record_read_rereference(KEY_A, distance=7)
        table.record_read_rereference(KEY_A, distance=3)
        stats = table.get(KEY_A)
        assert stats.read_rereferences == 2
        assert stats.mean_distance == pytest.approx(5.0)

    def test_rereference_for_unseen_hint_set_is_tolerated(self):
        # The original request may predate the current window; the re-reference
        # is still credited.
        table = HintTable()
        table.record_read_rereference(KEY_B, distance=2)
        assert table.get(KEY_B).read_rereferences == 1

    def test_invalid_distance_rejected(self):
        table = HintTable()
        with pytest.raises(ValueError):
            table.record_read_rereference(KEY_A, distance=0)

    def test_nr_never_exceeds_n_in_normal_operation(self):
        table = HintTable()
        for i in range(20):
            table.record_request(KEY_A)
            if i % 2 == 0:
                table.record_read_rereference(KEY_A, distance=1)
        stats = table.get(KEY_A)
        assert stats.read_rereferences <= stats.requests

    def test_snapshot_is_a_copy(self):
        table = HintTable()
        table.record_request(KEY_A)
        snap = table.snapshot()
        table.record_request(KEY_B)
        assert KEY_B not in snap

    def test_clear(self):
        table = HintTable()
        table.record_request(KEY_A)
        table.clear()
        assert len(table) == 0
        assert table.get(KEY_A) is None

    def test_priorities_mapping(self):
        table = HintTable()
        table.record_request(KEY_A)
        table.record_request(KEY_B)
        table.record_read_rereference(KEY_A, distance=2)
        priorities = table.priorities()
        assert priorities[KEY_A] > 0.0
        assert priorities[KEY_B] == 0.0
