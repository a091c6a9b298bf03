"""Tests for the reference's windowed priority estimation and exponential
smoothing (Section 3.2, ``tests/clic_reference.py``)."""

from __future__ import annotations

import pytest

from tests.clic_reference import PriorityManager, SpaceSavingTracker


KEY_A = ("db2", ("a",))
KEY_B = ("db2", ("b",))


def fill_window(pm: PriorityManager, key: tuple, rereference_every: int | None = None) -> bool:
    """Feed exactly one window of requests for *key*; return the last record_request result."""
    closed = False
    for i in range(pm.window_size):
        if rereference_every and i % rereference_every == 0:
            pm.record_read_rereference(key, distance=5)
        closed = pm.record_request(key)
    return closed


class TestPriorityManager:
    def test_priorities_zero_before_first_window(self):
        pm = PriorityManager(window_size=10)
        pm.record_request(KEY_A)
        assert pm.priority(KEY_A) == 0.0

    def test_window_boundary_reported_by_record_request(self):
        pm = PriorityManager(window_size=3)
        assert pm.record_request(KEY_A) is False
        assert pm.record_request(KEY_A) is False
        assert pm.record_request(KEY_A) is True
        assert pm.windows_completed == 1
        assert pm.requests_in_window == 0

    def test_priority_computed_from_window_statistics(self):
        pm = PriorityManager(window_size=4)
        pm.record_read_rereference(KEY_A, distance=2)
        pm.record_read_rereference(KEY_A, distance=2)
        for _ in range(4):
            pm.record_request(KEY_A)
        # fhit = 2/4 = 0.5, D = 2 -> Pr = 0.25
        assert pm.priority(KEY_A) == pytest.approx(0.25)

    def test_statistics_cleared_at_window_boundary(self):
        pm = PriorityManager(window_size=2)
        pm.record_read_rereference(KEY_A, distance=2)
        pm.record_request(KEY_A)
        pm.record_request(KEY_A)
        assert len(pm.tracker) == 0

    def test_r_equal_one_uses_only_latest_window(self):
        pm = PriorityManager(window_size=2, decay=1.0)
        # Window 1: KEY_A has re-references.
        pm.record_read_rereference(KEY_A, distance=1)
        pm.record_request(KEY_A)
        pm.record_request(KEY_A)
        first = pm.priority(KEY_A)
        assert first > 0.0
        # Window 2: KEY_A never re-referenced -> priority drops to zero.
        pm.record_request(KEY_A)
        pm.record_request(KEY_A)
        assert pm.priority(KEY_A) == 0.0

    def test_r_less_than_one_blends_windows(self):
        pm = PriorityManager(window_size=2, decay=0.5)
        pm.record_read_rereference(KEY_A, distance=1)
        pm.record_request(KEY_A)
        pm.record_request(KEY_A)
        first = pm.priority(KEY_A)
        # Second window with no re-references: Pr = 0.5*0 + 0.5*first.
        pm.record_request(KEY_A)
        pm.record_request(KEY_A)
        assert pm.priority(KEY_A) == pytest.approx(0.5 * first)

    def test_unobserved_hint_sets_decay_when_r_below_one(self):
        pm = PriorityManager(window_size=1, decay=0.25)
        pm.record_read_rereference(KEY_A, distance=1)
        pm.record_request(KEY_A)
        initial = pm.priority(KEY_A)
        # KEY_A absent from the next window entirely.
        pm.record_request(KEY_B)
        assert pm.priority(KEY_A) == pytest.approx(0.75 * initial)

    def test_unobserved_hint_sets_forgotten_when_r_is_one(self):
        pm = PriorityManager(window_size=1, decay=1.0)
        pm.record_read_rereference(KEY_A, distance=1)
        pm.record_request(KEY_A)
        assert pm.priority(KEY_A) > 0
        pm.record_request(KEY_B)
        assert pm.priority(KEY_A) == 0.0

    def test_top_k_mode_uses_space_saving(self):
        pm = PriorityManager(window_size=10, top_k=2)
        assert isinstance(pm.tracker, SpaceSavingTracker)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PriorityManager(window_size=0)
        with pytest.raises(ValueError):
            PriorityManager(window_size=10, decay=0.0)
        with pytest.raises(ValueError):
            PriorityManager(window_size=10, decay=1.5)

    def test_higher_priority_for_quicker_rereferences_across_hint_sets(self):
        pm = PriorityManager(window_size=10)
        for i in range(5):
            pm.record_read_rereference(KEY_A, distance=2)
            pm.record_read_rereference(KEY_B, distance=50)
        for _ in range(5):
            pm.record_request(KEY_A)
            pm.record_request(KEY_B)
        assert pm.priority(KEY_A) > pm.priority(KEY_B)
