"""Tests for the reference outqueue (paper Section 3.1) in ``tests/clic_reference.py``."""

from __future__ import annotations

import pytest

from tests.clic_reference import OutQueue


class TestOutQueue:
    def test_put_and_get(self):
        oq = OutQueue(4)
        oq.put(1, seq=10, hint_key=("c", (1,)))
        entry = oq.get(1)
        assert entry is not None
        assert entry.seq == 10
        assert entry.hint_key == ("c", (1,))

    def test_capacity_bound_is_enforced(self):
        oq = OutQueue(3)
        for page in range(10):
            oq.put(page, seq=page, hint_key=())
        assert len(oq) == 3

    def test_least_recently_inserted_is_evicted(self):
        oq = OutQueue(2)
        assert oq.put(1, 1, ()) is None
        assert oq.put(2, 2, ()) is None
        evicted = oq.put(3, 3, ())
        assert evicted == 1
        assert 1 not in oq
        assert 2 in oq and 3 in oq

    def test_refresh_moves_page_to_most_recent(self):
        oq = OutQueue(2)
        oq.put(1, 1, ())
        oq.put(2, 2, ())
        oq.put(1, 3, ())          # refresh page 1
        evicted = oq.put(3, 4, ())
        assert evicted == 2        # page 2 is now the oldest insertion

    def test_refresh_updates_metadata(self):
        oq = OutQueue(2)
        oq.put(1, 1, ("c", ("a",)))
        oq.put(1, 9, ("c", ("b",)))
        entry = oq.get(1)
        assert entry.seq == 9
        assert entry.hint_key == ("c", ("b",))

    def test_remove(self):
        oq = OutQueue(2)
        oq.put(1, 1, ())
        removed = oq.remove(1)
        assert removed is not None and removed.seq == 1
        assert oq.remove(1) is None
        assert len(oq) == 0

    def test_zero_capacity_tracks_nothing(self):
        oq = OutQueue(0)
        assert oq.put(1, 1, ()) is None
        assert oq.get(1) is None
        assert len(oq) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            OutQueue(-1)

    def test_pages_iterates_oldest_first(self):
        oq = OutQueue(3)
        oq.put(5, 1, ())
        oq.put(6, 2, ())
        oq.put(7, 3, ())
        assert list(oq.pages()) == [5, 6, 7]
