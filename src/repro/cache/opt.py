"""OPT: Belady's MIN algorithm, specialised for read hit ratio.

The CLIC paper uses the off-line optimal policy as an upper bound: "It
replaces the cached page that will not be *read* for the longest time."
Because the paper's metric is the read hit ratio, only future *read*
references matter; a page that will only be written again (or never touched
again) is worthless in the cache.

This implementation additionally applies the bypass optimisation: on a miss,
if the requested page's next read lies further in the future than every
cached page's next read (in particular, if it will never be read again), the
page is not admitted at all.  This is the true optimum for the read-hit
metric and can only raise the upper bound.

OPT is an off-line policy: the simulator must call :meth:`prepare` with the
complete request stream before feeding requests.  The future knowledge is a
:class:`ReadIndex` — one next-read column over the stream.  The
per-request loop runs in C (``repro/core/_opt_kernel.c``): the cached pages
with their next reads and a lazily validated max-heap of (next read, page)
entries.  Python keeps the index and hands each kernel call its next-read
column, which the kernel reads by each request's sequence number.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as _np

from repro.core.kernel import KernelPolicy

if TYPE_CHECKING:  # imported for type annotations only (avoids an import cycle)
    from repro.trace.columnar import ColumnarChunk

__all__ = ["NEVER", "OPTPolicy", "ReadIndex"]

#: Next-read "time" of a request whose page is never read again (int64 max).
NEVER = 2**63 - 1


def _next_reads(page: Any, write: Any, pos: Any) -> Any:
    """For each request, the position of the next read of its page strictly
    after it, or :data:`NEVER`.

    ``page``/``write`` are the stream's columns and ``pos`` its (ascending)
    positions.  A stable argsort groups the requests by page while keeping
    stream order inside each group; in that order, a request's next read is
    the first read ranked after it, found with one ``searchsorted`` over the
    reads' ranks, provided it still belongs to the same page.
    """
    n = len(page)
    out = _np.full(n, NEVER, _np.int64)
    order = _np.argsort(page, kind="stable")
    reads = _np.flatnonzero(~write[order])
    follow = _np.searchsorted(reads, _np.arange(n), side="right")
    ranked = _np.flatnonzero(follow < len(reads))
    after = reads[follow[ranked]]
    grouped = page[order]
    same = grouped[after] == grouped[ranked]
    out[order[ranked[same]]] = pos[order[after[same]]]
    return out


class ReadIndex(NamedTuple):
    """The future-read index of one request stream, as one int64 column.

    ``next_read[i]`` is the sequence number of the first read of request
    *i*'s page strictly after request *i* (:data:`NEVER` if there is none).
    Request *i* is sequence number *i*, and the kernel looks a request's
    next read up by its sequence number, so a cluster's OPT shards, each
    stepping only its own requests, read one shared column.  The index
    depends only on the stream, never on the cache capacity, so one index
    serves every OPT instance replaying that stream.
    """

    next_read: Any

    @classmethod
    def build(cls, requests: Any, router: Any = None) -> "ReadIndex":
        """Index a request stream, numbering its requests from 0.

        *requests* is any request source; it is indexed from its chunks'
        page/write columns (:func:`~repro.trace.columnar.as_columnar`
        lifts a request list).  With a shard *router* (``route_batch``,
        routing from its current state), a read only counts as the next
        read of requests on its own shard: one column holding every shard's
        own index.
        """
        # Lazy import: repro.trace imports repro.simulation, which imports
        # this module.
        from repro.trace.columnar import as_columnar

        pages: list[Any] = []
        writes: list[Any] = []
        shards: list[Any] = []
        for chunk in as_columnar(requests).iter_columnar():
            pages.append(chunk.page)
            writes.append(chunk.write)
            if router is not None:
                shards.append(router.route_batch(chunk))
        if not pages:
            return cls(_np.zeros(0, _np.int64))
        page = _np.concatenate(pages)
        write = _np.concatenate(writes)
        pos = _np.arange(len(page), dtype=_np.int64)
        if router is None:
            return cls(_next_reads(page, write, pos))
        shard = _np.concatenate(shards)
        column = _np.empty(len(page), _np.int64)
        for s in _np.unique(shard).tolist():
            idx = _np.flatnonzero(shard == s)
            column[idx] = _next_reads(page[idx], write[idx], pos[idx])
        return cls(column)


class OPTPolicy(KernelPolicy):
    """Belady's MIN with future knowledge of read references."""

    name = "OPT"
    kernel = "opt"
    lookup_key = "seq"
    offline = True
    shares_read_index = True

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._index: ReadIndex | None = None
        #: The index's next-read column, as the kernel reads it.
        self._next_read: Any = None
        self._open(capacity)

    # --------------------------------------------------------------- set-up
    @staticmethod
    def build_read_index(requests: Any) -> ReadIndex:
        """Build the next-read index of a request stream.

        *requests* is any request source, indexed from its page/write
        columns (see :meth:`ReadIndex.build`).  Positions are numbered from
        0, matching the sequence numbers the simulator assigns during
        replay.  The index depends only on the stream (not on the cache
        capacity), so one index can be shared by many :class:`OPTPolicy`
        instances via :meth:`adopt_read_index`.
        """
        return ReadIndex.build(requests)

    def prepare(self, requests: Any) -> None:
        """Index the future reads of the stream this policy will replay."""
        self.adopt_read_index(self.build_read_index(requests))

    def adopt_read_index(self, index: ReadIndex) -> None:
        """Adopt a pre-built future-read index (treated as read-only).

        The multi-policy engine uses this to build the index once per request
        stream and share it across every OPT instance in a sweep.
        """
        self._index = index
        self._next_read = _np.ascontiguousarray(index.next_read, _np.int64)

    def _lookup(self, chunk: "ColumnarChunk") -> Any:
        """The next read of each sequence number: the adopted index."""
        if self._next_read is None:
            raise RuntimeError("OPTPolicy.batch_access called before prepare()")
        return self._next_read

    # Bound here so that instrumentation wrapping a class's own methods
    # times OPT by itself.
    batch_access = KernelPolicy.batch_access
