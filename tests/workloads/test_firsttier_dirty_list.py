"""Differential test: the pool's dirty-page list against a frame scan.

:class:`~repro.workloads.firsttier.FirstTierBufferPool` keeps its dirty
pages in one ordered list that mirrors the frame order, and its cleaner,
checkpoint and ``flush_all`` take the ends of that list.  The reference
below is the straightforward design it replaced: a dirty flag per frame,
found by walking every frame (cleaner from the cold end, checkpoint from the
hot end).  Both are driven with the same random operations and must emit
the same I/O, hold the same frames in the same order and agree on which
pages are dirty, in that order, after every one.
"""

from __future__ import annotations

import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.dbmodel import DatabaseObject, SyntheticDatabase
from repro.workloads.firsttier import FirstTierBufferPool, IOClass, PoolIO


class _Frame:
    __slots__ = ("obj", "dirty", "scan_only")

    def __init__(self, obj: DatabaseObject, dirty: bool, scan_only: bool):
        self.obj = obj
        self.dirty = dirty
        self.scan_only = scan_only


class FrameScanningPool:
    """The reference pool: dirty flags on the frames, found by scanning."""

    def __init__(
        self,
        capacity: int,
        cleaner_interval: int,
        cleaner_batch: int,
        checkpoint_interval: int,
        checkpoint_batch: int,
    ):
        self._capacity = capacity
        self._cleaner_interval = cleaner_interval
        self._cleaner_batch = cleaner_batch
        self._checkpoint_interval = checkpoint_interval
        self._checkpoint_batch = checkpoint_batch
        self._scan_threshold = 0.95  # the pool's default
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self._accesses = 0

    def dirty_pages(self) -> int:
        return sum(1 for frame in self._frames.values() if frame.dirty)

    def _maybe_background_io(self, ios, txn):
        if self._accesses % self._cleaner_interval == 0:
            self._run_cleaner(ios, txn)
        if self._checkpoint_interval and self._accesses % self._checkpoint_interval == 0:
            self._run_checkpoint(ios, txn)

    def _run_cleaner(self, ios, txn):
        flushed = 0
        for page, frame in self._frames.items():
            if flushed >= self._cleaner_batch:
                break
            if frame.dirty:
                frame.dirty = False
                ios.append(PoolIO(page, IOClass.REPLACEMENT_WRITE, frame.obj, txn))
                flushed += 1

    def _run_checkpoint(self, ios, txn):
        flushed = 0
        for page in reversed(list(self._frames.keys())):
            if flushed >= self._checkpoint_batch:
                break
            frame = self._frames[page]
            if frame.dirty:
                frame.dirty = False
                ios.append(PoolIO(page, IOClass.RECOVERY_WRITE, frame.obj, txn))
                flushed += 1

    def _evict_one(self, ios, txn):
        page, frame = self._frames.popitem(last=False)
        if frame.dirty:
            ios.append(PoolIO(page, IOClass.SYNCHRONOUS_WRITE, frame.obj, txn))

    def _insert(self, page, obj, dirty, scan_only):
        self._frames[page] = _Frame(obj, dirty, scan_only)
        if scan_only and len(self._frames) > 1:
            self._frames.move_to_end(page, last=False)

    def access(self, obj, page_index, write=False, txn=0, is_new_page=False):
        page = obj.page(page_index)
        ios: list[PoolIO] = []
        self._accesses += 1
        self._maybe_background_io(ios, txn)
        frame = self._frames.get(page)
        if frame is not None:
            frame.dirty = frame.dirty or write
            frame.scan_only = False
            self._frames.move_to_end(page)
            return ios
        if len(self._frames) >= self._capacity:
            self._evict_one(ios, txn)
        if not is_new_page:
            ios.append(PoolIO(page, IOClass.REGULAR_READ, obj, txn))
        self._insert(page, obj, dirty=write, scan_only=False)
        return ios

    def scan(self, obj, start_index, length, txn=0):
        ios: list[PoolIO] = []
        end = min(start_index + length, obj.page_count)
        large_object = obj.page_count > self._scan_threshold * self._capacity
        for index in range(start_index, end):
            page = obj.page(index)
            self._accesses += 1
            self._maybe_background_io(ios, txn)
            frame = self._frames.get(page)
            if frame is not None:
                if large_object and frame.scan_only:
                    self._frames.move_to_end(page, last=False)
                else:
                    self._frames.move_to_end(page)
                continue
            if len(self._frames) >= self._capacity:
                self._evict_one(ios, txn)
            ios.append(PoolIO(page, IOClass.PREFETCH_READ, obj, txn))
            self._insert(page, obj, dirty=False, scan_only=large_object)
        return ios

    def flush_all(self, txn=0):
        ios = []
        for page, frame in self._frames.items():
            if frame.dirty:
                frame.dirty = False
                ios.append(PoolIO(page, IOClass.RECOVERY_WRITE, frame.obj, txn))
        return ios


def _insert_dirty_scanned(pool, obj: DatabaseObject, index: int, txn: int) -> list[PoolIO]:
    """Fault a *dirty* page in at the cold end, as a scan of a large object
    does for a clean one.  No public path does this today, but ``_insert``
    takes any ``dirty`` flag, and it makes the cold-end re-scan of a dirty
    page reachable."""
    ios: list[PoolIO] = []
    page = obj.page(index)
    if page in pool._frames:
        return ios
    if len(pool._frames) >= pool._capacity:
        pool._evict_one(ios, txn)
    pool._insert(page, obj, dirty=True, scan_only=True)
    return ios


def _operations(rng: random.Random, objects: list[DatabaseObject], count: int):
    large = objects[-1]
    faulted: list[int] = []
    for txn in range(count):
        roll = rng.random()
        if roll < 0.4:
            obj = rng.choice(objects)
            yield ("access", obj, rng.randrange(obj.page_count), rng.random() < 0.5, txn)
        elif roll < 0.7:
            if faulted and rng.random() < 0.5:
                # Re-scan a page faulted in dirty at the cold end.
                obj, start = large, max(0, rng.choice(faulted) - rng.randrange(3))
            else:
                obj = large if rng.random() < 0.7 else rng.choice(objects)
                start = rng.randrange(obj.page_count)
            yield ("scan", obj, start, rng.randint(1, 8), txn)
        elif roll < 0.97:
            index = rng.randrange(large.page_count)
            faulted = [*faulted[-3:], index]
            yield ("dirty-scanned", large, index, txn)
        else:
            yield ("flush", txn)


def _apply(pool, op) -> list[PoolIO]:
    kind = op[0]
    if kind == "access":
        _, obj, index, write, txn = op
        return pool.access(obj, index, write=write, txn=txn)
    if kind == "scan":
        _, obj, start, length, txn = op
        return pool.scan(obj, start, length, txn=txn)
    if kind == "dirty-scanned":
        _, obj, index, txn = op
        return _insert_dirty_scanned(pool, obj, index, txn)
    return pool.flush_all(txn=op[1])


@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(2, 16),
    cleaner_interval=st.integers(1, 30),
    cleaner_batch=st.integers(0, 4),
    checkpoint_interval=st.integers(0, 40),
    checkpoint_batch=st.integers(0, 5),
)
@settings(max_examples=100, deadline=None)
def test_dirty_list_pool_matches_frame_scanning_pool(
    seed, capacity, cleaner_interval, cleaner_batch, checkpoint_interval, checkpoint_batch
):
    db = SyntheticDatabase()
    objects = [db.add_object(f"small{i}", pages=1 + i * 3) for i in range(3)]
    # Larger than the pool: its scans are scan-resistant (cold-end inserts).
    objects.append(db.add_object("large", pages=capacity + 6))
    pool = FirstTierBufferPool(
        capacity=capacity,
        cleaner_interval=cleaner_interval,
        cleaner_batch=cleaner_batch,
        checkpoint_interval=checkpoint_interval,
        checkpoint_batch=checkpoint_batch,
    )
    reference = FrameScanningPool(
        capacity, cleaner_interval, cleaner_batch, checkpoint_interval, checkpoint_batch
    )
    for op in _operations(random.Random(seed), objects, 120):
        assert _apply(pool, op) == _apply(reference, op), op
        assert pool.dirty_pages() == reference.dirty_pages()
        assert list(pool._frames) == list(reference._frames)
        # The dirty list is the reference's dirty frames, in frame order.
        assert list(pool._dirty) == [
            page for page, frame in reference._frames.items() if frame.dirty
        ], op
    assert pool.flush_all(txn=-1) == reference.flush_all(txn=-1)
    assert pool.dirty_pages() == reference.dirty_pages() == 0


def test_cold_end_rescan_of_a_dirty_page_reorders_the_flush():
    """Two dirty pages faulted in at the cold end, then the older one is
    re-scanned back to the cold end: the dirty list must follow the frames,
    so a flush emits the re-scanned page first."""
    db = SyntheticDatabase()
    large = db.add_object("large", pages=20)
    pool = FirstTierBufferPool(capacity=8, cleaner_interval=1_000, checkpoint_interval=0)
    reference = FrameScanningPool(8, 1_000, 32, 0, 64)
    for p in (pool, reference):
        _insert_dirty_scanned(p, large, 0, txn=0)
        _insert_dirty_scanned(p, large, 1, txn=0)
        p.scan(large, 0, 1)
    expected = [large.page(0), large.page(1)]
    assert [io.page for io in reference.flush_all()] == expected
    assert [io.page for io in pool.flush_all()] == expected
