"""Tests for the synthetic database model and access primitives."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.access import AppendCursor, HotSpotSampler, PageAccess
from repro.workloads.dbmodel import DatabaseObject, ObjectType, SyntheticDatabase


class TestSyntheticDatabase:
    def test_objects_get_disjoint_page_ranges(self):
        db = SyntheticDatabase()
        a = db.add_object("A", pages=10)
        b = db.add_object("B", pages=5)
        assert set(a.pages()).isdisjoint(b.pages())
        assert db.total_pages == 15

    def test_object_ids_sequential(self):
        db = SyntheticDatabase()
        a = db.add_object("A", pages=1)
        b = db.add_object("B", pages=1)
        assert (a.object_id, b.object_id) == (0, 1)

    def test_duplicate_names_rejected(self):
        db = SyntheticDatabase()
        db.add_object("A", pages=1)
        with pytest.raises(ValueError):
            db.add_object("A", pages=1)

    def test_growth_appends_new_extent(self):
        db = SyntheticDatabase()
        a = db.add_object("A", pages=4)
        b = db.add_object("B", pages=4)
        db.grow(a, 3)
        assert a.page_count == 7
        # Grown pages do not collide with other objects.
        assert set(a.pages()).isdisjoint(b.pages())
        assert db.total_pages == 11

    def test_grow_foreign_object_rejected(self):
        db = SyntheticDatabase()
        other = SyntheticDatabase()
        obj = other.add_object("X", pages=1)
        with pytest.raises(KeyError):
            db.grow(obj, 1)

    def test_page_indexing_across_extents(self):
        db = SyntheticDatabase()
        a = db.add_object("A", pages=3)
        db.add_object("B", pages=3)
        db.grow(a, 2)
        pages = [a.page(i) for i in range(5)]
        assert pages == a.pages()
        assert len(set(pages)) == 5

    def test_page_index_out_of_range(self):
        db = SyntheticDatabase()
        a = db.add_object("A", pages=2)
        with pytest.raises(IndexError):
            a.page(2)
        with pytest.raises(IndexError):
            a.page(-1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 6)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_indexed_lookup_matches_a_walk_of_the_extents(self, steps):
        """``page_count`` and ``page(i)`` read an index that only the extent
        append keeps; after any mix of creations and growth they equal a sum
        and a linear walk of ``extents``."""
        db = SyntheticDatabase()
        objects = []
        for target, pages in steps:
            if target >= len(objects):
                objects.append(db.add_object(f"O{len(objects)}", pages=pages))
            elif pages:
                db.grow(objects[target], pages)
        for obj in objects:
            walked = [start + k for start, count in obj.extents for k in range(count)]
            assert obj.page_count == sum(count for _, count in obj.extents)
            assert [obj.page(i) for i in range(obj.page_count)] == walked
            for index in (-1, obj.page_count):
                with pytest.raises(IndexError):
                    obj.page(index)

    def test_direct_construction_indexes_its_extents(self):
        obj = DatabaseObject(
            "A", object_id=0, object_type_id=ObjectType.TABLE, pool_id=0, file_id=0,
            extents=[(10, 2), (40, 0), (20, 3)],
        )
        assert obj.page_count == 5
        assert [obj.page(i) for i in range(5)] == [10, 11, 20, 21, 22] == obj.pages()

    def test_pool_queries(self):
        db = SyntheticDatabase()
        db.add_object("A", pages=1, pool_id=0)
        db.add_object("B", pages=1, pool_id=1)
        db.add_object("C", pages=1, pool_id=1)
        assert db.pool_ids() == {0, 1}
        assert [o.name for o in db.objects_in_pool(1)] == ["B", "C"]

    def test_describe(self):
        db = SyntheticDatabase()
        db.add_object("A", pages=2, object_type_id=ObjectType.INDEX)
        row = db.describe()[0]
        assert row["object"] == "A"
        assert row["type"] == "index"
        assert row["pages"] == 2

    def test_contains_and_getitem(self):
        db = SyntheticDatabase()
        db.add_object("A", pages=1)
        assert "A" in db and "B" not in db
        assert db["A"].name == "A"


class TestHotSpotSampler:
    def test_samples_within_object(self):
        db = SyntheticDatabase()
        obj = db.add_object("A", pages=100)
        sampler = HotSpotSampler()
        rng = random.Random(1)
        for _ in range(500):
            assert 0 <= sampler.sample(obj, rng) < 100

    def test_hot_fraction_receives_most_accesses(self):
        db = SyntheticDatabase()
        obj = db.add_object("A", pages=100)
        sampler = HotSpotSampler(hot_fraction=0.2, hot_probability=0.9)
        rng = random.Random(2)
        samples = [sampler.sample(obj, rng) for _ in range(5000)]
        hot = sum(1 for s in samples if s < 20)
        assert hot / len(samples) > 0.8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HotSpotSampler(hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotSpotSampler(hot_probability=1.5)

    def test_empty_object_rejected(self):
        db = SyntheticDatabase()
        obj = db.add_object("A", pages=0)
        with pytest.raises(ValueError):
            HotSpotSampler().sample(obj, random.Random(1))


class TestAppendCursor:
    def test_appends_write_to_tail_page(self):
        db = SyntheticDatabase()
        obj = db.add_object("A", pages=1)
        cursor = AppendCursor(obj, rows_per_page=2)
        accesses = cursor.append(db, count=1)
        assert len(accesses) == 1
        assert accesses[0].write is True
        assert accesses[0].page_index == obj.last_page_index()

    def test_allocates_new_page_when_tail_full(self):
        db = SyntheticDatabase()
        obj = db.add_object("A", pages=1)
        cursor = AppendCursor(obj, rows_per_page=2)
        cursor.append(db, count=2)           # fills the existing tail page
        before = obj.page_count
        accesses = cursor.append(db, count=1)
        assert obj.page_count == before + 1
        assert accesses[0].is_new_page is True

    def test_growth_rate_matches_rows_per_page(self):
        db = SyntheticDatabase()
        obj = db.add_object("A", pages=1)
        cursor = AppendCursor(obj, rows_per_page=10)
        cursor.append(db, count=100)
        # 100 rows at 10 rows/page needs ~10 pages in total.
        assert 10 <= obj.page_count <= 12

    def test_invalid_rows_per_page(self):
        db = SyntheticDatabase()
        obj = db.add_object("A", pages=1)
        with pytest.raises(ValueError):
            AppendCursor(obj, rows_per_page=0)
