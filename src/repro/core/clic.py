"""The CLIC storage-server cache replacement policy (Sections 3-5).

CLIC assigns every hint set ``H`` a caching priority ``Pr(H)`` learned
on-line from the read re-reference behaviour of requests that carried ``H``
(:mod:`repro.core.priority`).  The replacement policy (paper Figure 4) then
works as follows for a request ``(p, H)`` with sequence number ``s``:

* if ``p`` is cached, refresh ``seq(p)`` and ``H(p)`` — the most recent
  request always determines a page's priority;
* else, if the cache has free space, admit ``p``;
* else, let ``m`` be the minimum priority over all cached pages and ``v``
  the *oldest* (smallest ``seq``) page with priority ``m``.  If
  ``Pr(H) > m``, evict ``v`` (remembering it in the outqueue) and admit
  ``p``; otherwise do not cache ``p`` and remember it in the outqueue.

The per-request loop runs in C (``_clic_kernel.c``, built and loaded by
:mod:`repro.core.kernel`), over the constant-expected-time structures the
paper describes: a page map, one recency list per hint set, the ``Pr``
table, a lazily validated heap over hint sets and the outqueue.  Each
policy instance owns one kernel handle, freed when the instance is.

Python keeps the work that runs once per chunk or per *segment* — the
requests of a chunk that fall into one priority window, during which
priorities are frozen: interning hint-set keys to the dense hint ids the
kernel indexes by, cutting chunks at window ends, feeding the segment's
request counts and re-reference credits to the priority manager's tracker,
and, when a window closes, pushing the new ``Pr`` table into the kernel.
``access()`` is the one-request case of the same call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from repro.cache.base import AccessOutcome, AccessOutcomeBatch
from repro.core.config import CLICConfig
from repro.core.hints import HintSet
from repro.core.kernel import KernelPolicy, address
from repro.core.priority import PriorityManager

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.simulation.request import IORequest
    from repro.trace.columnar import ColumnarChunk

__all__ = ["CLICPolicy"]


class CLICPolicy(KernelPolicy):
    """CLient-Informed Caching replacement policy."""

    name = "CLIC"
    kernel = "clic"

    def __init__(self, capacity: int, config: CLICConfig | None = None):
        super().__init__(capacity)
        self._config = config or CLICConfig()
        # The paper charges CLIC for its tracking metadata by shrinking the
        # usable cache (~1% for the default parameters).
        self._effective_capacity = self._config.effective_capacity(capacity)
        self._priorities = PriorityManager(
            window_size=self._config.window_size,
            decay=self._config.decay,
            top_k=self._config.top_k,
        )
        # Interned hint-set keys: hint id -> key and key -> hint id.
        self._keys: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        # Segment tallies written by the kernel: 2 + 7 int64 per hint id.
        self._tally = np.zeros(2 + 7 * 64, np.int64)
        self._tally_address = address(self._tally)
        self._open(self._effective_capacity, self._config.outqueue_capacity(capacity))

    # ------------------------------------------------------------ properties
    @property
    def config(self) -> CLICConfig:
        return self._config

    @property
    def effective_capacity(self) -> int:
        """Usable page slots after the metadata charge."""
        return self._effective_capacity

    @property
    def priority_manager(self) -> PriorityManager:
        """The windowed priority estimator (exposed for analysis and tests)."""
        return self._priorities

    def hint_priority(self, hints: HintSet) -> float:
        """Current ``Pr(H)`` for a hint set (zero if unknown)."""
        return self._priorities.priority(hints.key())

    # ------------------------------------------------------------- hint ids
    def _hint_id(self, hints: HintSet) -> int:
        """The interned id of *hints*' key, assigning the next one if it is new.

        A new key has never been requested here, so its ``Pr`` is zero,
        which is what the kernel gives a new id.
        """
        hint_key = hints.key()
        hint_id = self._ids.get(hint_key)
        if hint_id is None:
            hint_id = self._ids[hint_key] = len(self._keys)
            self._keys.append(hint_key)
        return hint_id

    # --------------------------------------------------------------- access
    def access(self, request: IORequest, seq: int) -> AccessOutcome:
        one = self._one
        one[0] = request.page
        one[2] = seq
        one[3] = hint_id = self._hint_id(request.hints)
        self._one_flags[0] = request.is_write
        key = self._keys[hint_id]
        self._run(1, self._one_address, lambda start, stop: (key,))
        return self._one_outcome()

    def batch_access(self, chunk: "ColumnarChunk") -> AccessOutcomeBatch:
        pages, writes, hints, seqs, ids = self._hinted_columns(chunk, self._hint_id)
        keys = self._keys

        def segment_keys(start: int, stop: int) -> Iterator[tuple]:
            # Lazy: a tracker that can always defer never asks.
            for hint_id in np.unique(ids[hints[start:stop]]).tolist():
                yield keys[hint_id]

        return self._replay_chunk(
            pages, write=address(writes), hint=address(hints), seq=address(seqs),
            ids=address(ids), run=lambda n, struct: self._run(n, struct, segment_keys),
        )

    def _run(
        self, n: int, struct: int, segment_keys: Callable[[int, int], Iterable[tuple]]
    ) -> None:
        """Replay the *n* requests of the kernel's ``Columns`` at address
        *struct*, one window segment per kernel call."""
        priorities = self._priorities
        tracker = priorities.tracker
        replay = self._lib.clic_replay
        start = 0
        while start < n:
            # One segment per window: the boundary falls between requests
            # exactly where a request-by-request replay closes the window.
            stop = min(n, start + priorities.window_room())
            n_keys = len(self._keys)
            if tracker.can_defer(segment_keys(start, stop)):
                if len(self._tally) < 2 + 7 * n_keys:
                    self._tally = np.zeros(2 + 14 * n_keys, np.int64)
                    self._tally_address = address(self._tally)
                if replay(self._handle, start, stop, n_keys, struct, self._tally_address, None):
                    raise MemoryError("CLIC kernel: out of memory")
                window_closed = self._record_tallies(stop - start)
            else:
                # A Space-Saving counter may be recycled: the tracker must
                # see the segment request by request, in stream order.
                log = np.empty(3 * (stop - start), np.int64)
                if replay(self._handle, start, stop, n_keys, struct, None, address(log)):
                    raise MemoryError("CLIC kernel: out of memory")
                window_closed = self._record_log(log)
            if window_closed:
                get = priorities.mapping.get
                pr = np.array([get(key, 0.0) for key in self._keys], np.float64)
                if self._lib.clic_set_priorities(self._handle, address(pr), len(pr)):
                    raise MemoryError("CLIC kernel: out of memory")
            start = stop

    def _record_tallies(self, requests: int) -> bool:
        """Apply a deferred segment's per-hint tallies to the tracker.

        Counts come in last-occurrence order.  Credits come as per-hint
        totals, split by whether the credited hint id was requested earlier
        in the segment; the rest count only if the tracker accepted that id
        at the segment start, which is its state now.
        """
        tally = self._tally
        n_counts, n_credits = tally[:2].tolist()
        values = tally[2 : 2 + 2 * n_counts + 5 * n_credits].tolist()
        keys = self._keys
        counts = [
            (keys[hint_id], count)
            for hint_id, count in zip(values[0 : 2 * n_counts : 2], values[1 : 2 * n_counts : 2])
        ]
        accepts = self._priorities.tracker.accepts_rereference
        credits = values[2 * n_counts :]
        rereferences = []
        for hint_id, early, early_distance, late, late_distance in zip(
            credits[0::5], credits[1::5], credits[2::5], credits[3::5], credits[4::5]
        ):
            key = keys[hint_id]
            if early and accepts(key):
                late += early
                late_distance += early_distance
            if late:
                rereferences.append((key, late, late_distance))
        return self._priorities.record_segment(counts, rereferences, requests)

    def _record_log(self, log: Any) -> bool:
        """Apply a segment's per-request log to the tracker, in stream order."""
        keys = self._keys
        record_rereference = self._priorities.record_read_rereference
        record_request = self._priorities.record_request
        window_closed = False
        records = log.tolist()
        for hint_id, credited, distance in zip(records[0::3], records[1::3], records[2::3]):
            if credited >= 0:
                record_rereference(keys[credited], distance)
            window_closed = record_request(keys[hint_id])
        return window_closed

    # ------------------------------------------------------------ inspection
    def current_priorities(self) -> dict[tuple, float]:
        """Current Pr(H) assignment (hint-set key -> priority)."""
        return dict(self._priorities.priorities())
