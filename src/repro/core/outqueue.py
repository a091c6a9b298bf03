"""The outqueue: bounded history of recent requests to *uncached* pages.

Section 3.1 of the paper: in order to recognise read re-references, CLIC
remembers ``seq(p)`` (sequence number of the most recent request for p) and
``H(p)`` (hint set attached to that request) for every cached page *and* for
a fixed number ``Noutq`` of additional, uncached pages.  The latter live in
the outqueue.  When the outqueue is full, the least-recently inserted entry
is evicted, which deliberately biases CLIC towards detecting *short*
re-reference distances — exactly the re-references that lead to high caching
priority.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator, NamedTuple

__all__ = ["OutQueueEntry", "OutQueue"]


class OutQueueEntry(NamedTuple):
    """Most-recent-request metadata remembered for one uncached page.

    The queue stores each entry as a plain ``(seq, hint_key)`` pair, which
    costs no Python-level constructor call on a hot path; :meth:`OutQueue.get`
    and :meth:`OutQueue.remove` hand it out under these field names.
    ``hint_key`` is the caller's tag for the request's hint set (CLIC stores
    its interned hint id).
    """

    seq: int
    hint_key: Hashable


class OutQueue:
    """A bounded, insertion-ordered map from page id to request metadata."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"outqueue capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[int, tuple[int, Hashable]] = OrderedDict()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def get(self, page: int) -> OutQueueEntry | None:
        """Return the remembered entry for *page*, or ``None``."""
        entry = self._entries.get(page)
        return None if entry is None else OutQueueEntry._make(entry)

    @property
    def entries(self) -> OrderedDict[int, tuple[int, Hashable]]:
        """The live page -> ``(seq, hint_key)`` map, least-recently inserted
        first.

        Exposed for batch kernels that inline :meth:`get`/:meth:`put` in a
        hot loop.  Mutations must preserve :meth:`put` semantics (refresh
        moves to the tail; overflow pops the head) and store plain pairs —
        the scalar and batch paths share this state and must stay
        bit-identical.
        """
        return self._entries

    def put(self, page: int, seq: int, hint_key: Hashable) -> int | None:
        """Insert or refresh the entry for *page*.

        Refreshing an existing page moves it to the most-recently-inserted
        position.  Returns the page id evicted to make room, or ``None``.
        """
        if self._capacity == 0:
            return None
        evicted: int | None = None
        if page in self._entries:
            del self._entries[page]
        elif len(self._entries) >= self._capacity:
            evicted, _ = self._entries.popitem(last=False)
        self._entries[page] = (seq, hint_key)
        return evicted

    def remove(self, page: int) -> OutQueueEntry | None:
        """Remove and return the entry for *page* (``None`` if absent)."""
        entry = self._entries.pop(page, None)
        return None if entry is None else OutQueueEntry._make(entry)

    def pages(self) -> Iterator[int]:
        """Iterate over remembered pages, least-recently inserted first."""
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OutQueue(capacity={self._capacity}, size={len(self._entries)})"
