"""Multi-client request streams (paper Section 6.4).

The paper evaluates CLIC with several DB2 instances sharing one storage
server: the per-client traces are interleaved round-robin, one request from
each trace in turn, and all traces are truncated to the length of the
shortest so no client dominates by sheer length.  Each client manages its own
database, so page identifiers of different clients never collide; the
interleaver remaps page ids into disjoint ranges to guarantee that.

Interleaving is columnar: :class:`InterleavedSource` zips the clients'
:class:`~repro.trace.columnar.ColumnarChunk` streams into one, so the
consolidated workload replays through the policies' batch kernels without
building a request object, and a parallel sweep ships the clients' trace
specs to its workers instead of the interleaved requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as _np

from repro.core.hints import EMPTY_HINT_SET, HintSet
from repro.simulation.request import IORequest
from repro.trace.columnar import ColumnarChunk, ColumnarStream, as_columnar

__all__ = [
    "InterleavedSource",
    "interleave_round_robin",
    "partition_capacity",
]


_Entry = TypeVar("_Entry")


class _TableMerge(Generic[_Entry]):
    """Merges the clients' lookup tables (hint sets or client ids) into one
    stream-wide table, deduplicated by *key* in first-seen order."""

    def __init__(self, key: Callable[[_Entry], Hashable], *entries: _Entry) -> None:
        self._key = key
        self._slots: dict[Hashable, int] = {}
        self._entries: list[_Entry] = []
        self.table: tuple[_Entry, ...] = ()
        self.remap(entries)

    def remap(self, table: Sequence[_Entry]) -> Any:
        """Index array taking *table*'s positions to merged-table positions."""
        slots = self._slots
        out = _np.empty(len(table), _np.int64)
        for position, entry in enumerate(table):
            key = self._key(entry)
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(self._entries)
                self._entries.append(entry)
            out[position] = slot
        if len(self._entries) != len(self.table):
            self.table = tuple(self._entries)
        return out


@dataclass(frozen=True)
class InterleavedSource:
    """Client traces interleaved round-robin, as a lazy columnar request source.

    Build it with :func:`interleave_round_robin`, which fixes
    ``page_stride`` (the largest page of any client, plus one) and
    ``rounds`` (requests taken from each client: the shortest trace's
    length).  Request ``r`` of client ``i`` becomes request
    ``r * len(sources) + i`` of the stream, with page ``page + i *
    page_stride``.

    The source is frozen, picklable and compares by its inputs, so a sweep
    folds the cells replaying it into one pass and ships trace specs, not
    requests, to worker processes.  :meth:`iter_columnar` decodes at most
    one block per client at a time.
    """

    sources: tuple[ColumnarStream, ...]
    page_stride: int
    rounds: int

    def __len__(self) -> int:
        return self.rounds * len(self.sources)

    def ensure(self) -> None:
        """Make sure every client's trace is on disk (see ``TraceSpec.ensure``)."""
        for source in self.sources:
            ensure = getattr(source, "ensure", None)
            if callable(ensure):
                ensure()

    def iter_columnar(self) -> Iterator[ColumnarChunk]:
        """Yield the interleaved stream as chunks, one per run of rounds that
        every client's current block covers.

        Hint ids and client indices are remapped into stream-wide tables
        that grow as the clients' tables do; hint id 0 stays the empty set.
        """
        streams = [source.iter_columnar() for source in self.sources]
        k = len(streams)
        hints = _TableMerge(HintSet.identity, EMPTY_HINT_SET)
        clients: _TableMerge[str] = _TableMerge(str)  # a client id is its own key
        blocks: list[ColumnarChunk | None] = [None] * k
        offsets = [0] * k
        # Per client: the tables its blocks carry (re-remapped whenever they
        # change) and their index remaps into the merged tables.
        hint_tables: list[tuple[HintSet, ...]] = [()] * k
        client_tables: list[tuple[str, ...]] = [()] * k
        hint_maps: list[Any] = [None] * k
        client_maps: list[Any] = [None] * k
        left = self.rounds
        seq = 0
        while left:
            # Every client's current block, advanced past exhausted ones;
            # this chunk takes as many rounds as all of them still cover.
            current: list[ColumnarChunk] = []
            rounds = left
            for i, stream in enumerate(streams):
                block = blocks[i]
                while block is None or offsets[i] == len(block):
                    block = next(stream, None)
                    if block is None:
                        raise ValueError(
                            f"interleaved client {i} ended before {self.rounds} "
                            "requests (its trace changed since interleaving)"
                        )
                    offsets[i] = 0
                    if block.hint_sets is not hint_tables[i]:
                        hint_tables[i] = block.hint_sets
                        hint_maps[i] = hints.remap(block.hint_sets)
                    if block.clients is not client_tables[i]:
                        client_tables[i] = block.clients
                        client_maps[i] = clients.remap(block.clients)
                blocks[i] = block
                current.append(block)
                rounds = min(rounds, len(block) - offsets[i])
            n = rounds * k
            page = _np.empty(n, _np.int64)
            write = _np.empty(n, _np.bool_)
            hint_id = _np.empty(n, _np.int64)
            client_idx = _np.empty(n, _np.int64)
            for i, block in enumerate(current):
                lo = offsets[i]
                hi = offsets[i] = lo + rounds
                page[i::k] = block.page[lo:hi] + i * self.page_stride
                write[i::k] = block.write[lo:hi]
                hint_id[i::k] = hint_maps[i][block.hint_id[lo:hi]]
                client_idx[i::k] = client_maps[i][block.client_idx[lo:hi]]
            yield ColumnarChunk(
                page,
                write,
                hint_id,
                client_idx,
                _np.arange(seq, seq + n, dtype=_np.int64),
                hints.table,
                clients.table,
            )
            seq += n
            left -= rounds


def interleave_round_robin(
    traces: Sequence[Iterable[IORequest] | ColumnarStream],
) -> InterleavedSource:
    """Interleave several client traces round-robin into one server workload.

    Every trace is truncated to the length of the shortest one (the paper
    does this to eliminate bias towards longer traces), and client ``i``'s
    pages move up by ``i`` times the largest page id of any client plus one,
    so no two clients share a page.

    *traces* holds one request source per client: a columnar stream
    (:class:`~repro.trace.cache.TraceSpec`,
    :class:`~repro.trace.binio.StreamedTrace`) or a request list, which is
    lifted once here (:func:`~repro.trace.columnar.as_columnar`).  The
    lengths and the largest page id come from one columnar pass over each
    trace, here; the returned source replays lazily.
    """
    sources = tuple(as_columnar(trace) for trace in traces)
    lengths: list[int] = []
    top = -1
    for source in sources:
        length = 0
        for chunk in source.iter_columnar():
            if len(chunk):
                length += len(chunk)
                top = max(top, int(chunk.page.max()))
        if not length:
            raise ValueError("cannot interleave an empty trace")
        lengths.append(length)
    return InterleavedSource(
        sources=sources,
        page_stride=top + 1,
        rounds=min(lengths, default=0),
    )


def partition_capacity(total: int, clients: int) -> list[int]:
    """Split a cache of *total* pages evenly among *clients* (static partitioning).

    Used for the comparison baseline in Figure 11: each client gets a private
    cache of ``total // clients`` pages (any remainder goes to the first
    clients so the sum equals ``total``).
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if total < clients:
        raise ValueError(f"cannot split {total} pages among {clients} clients")
    base = total // clients
    remainder = total % clients
    return [base + (1 if i < remainder else 0) for i in range(clients)]
