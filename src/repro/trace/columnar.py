"""Columnar batch representation of a request stream.

A :class:`ColumnarChunk` carries one decoded trace block as parallel numpy
arrays — page, op, hint-dictionary id, client-id index, sequence number —
instead of a list of :class:`~repro.simulation.request.IORequest` objects.
It is the unit of work of the replay engine: the binary trace reader
(:meth:`repro.trace.binio.StreamedTrace.iter_columnar`) decodes straight
into chunks, policy kernels (:meth:`repro.cache.base.CachePolicy.
batch_access`) consume them, and observers
(:meth:`repro.simulation.observers.ReplayObserver.on_batch`) account them
without materialising per-request objects.

Request lists convert both ways: :meth:`ColumnarChunk.from_requests` lifts a
request list into a chunk, and :meth:`ColumnarChunk.requests` materialises
the exact equivalent request list (memoised, so at most one materialisation
per chunk serves every scalar consumer).  :func:`as_columnar` makes any
request source a :class:`ColumnarStream`, lifting a request list once.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.hints import EMPTY_HINT_SET, HintSet
from repro.simulation.request import IORequest, RequestKind

__all__ = [
    "COLUMNAR_CHUNK_REQUESTS",
    "ColumnarChunk",
    "ColumnarSource",
    "ColumnarStream",
    "as_columnar",
]

#: Requests per chunk produced by :class:`ColumnarSource`; matches the
#: binary trace BLOCK size so both sources batch identically.
COLUMNAR_CHUNK_REQUESTS = 4096

# Columns are numpy arrays of several dtypes, annotated loosely.
Array = Any

_EMPTY_IDENTITY = ("", (), ())


class ColumnarChunk:
    """One batch of requests as parallel columns.

    Columns (all the same length):

    ``page``
        int64 — page number of each request.
    ``write``
        bool — the op column; True for writes, False for reads.
    ``hint_id``
        int64 — index into ``hint_sets``; 0 is always the empty hint set.
    ``client_idx``
        int64 — index into ``clients``.
    ``seq``
        int64 — global sequence number of each request.  Engine-produced
        chunks are contiguous (``seq[i] = seq_base + i``).

    ``hint_sets`` and ``clients`` are lookup tables shared across every
    chunk of a stream; they may contain entries a particular chunk never
    references.
    """

    __slots__ = (
        "page",
        "write",
        "hint_id",
        "client_idx",
        "seq",
        "hint_sets",
        "clients",
        "_requests",
    )

    def __init__(
        self,
        page: Array,
        write: Array,
        hint_id: Array,
        client_idx: Array,
        seq: Array,
        hint_sets: tuple[HintSet, ...],
        clients: tuple[str, ...],
    ):
        self.page = page
        self.write = write
        self.hint_id = hint_id
        self.client_idx = client_idx
        self.seq = seq
        self.hint_sets = hint_sets
        self.clients = clients
        self._requests: list[IORequest] | None = None

    # ------------------------------------------------------------- properties
    def __len__(self) -> int:
        return len(self.page)

    @property
    def seq_base(self) -> int:
        """Sequence number of the first request (0 for an empty chunk)."""
        return int(self.seq[0]) if len(self.seq) else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarChunk({len(self)} requests, seq_base={self.seq_base}, "
            f"{len(self.clients)} clients, {len(self.hint_sets)} hint sets)"
        )

    # ------------------------------------------------------------- converters
    @classmethod
    def from_requests(
        cls, requests: Sequence[IORequest], start_seq: int = 0
    ) -> "ColumnarChunk":
        """Lift a request list into a chunk (the object-side converter).

        Hint sets are deduplicated by :meth:`HintSet.identity`, and the
        first object seen with an identity is its table entry.  Traces share
        a few hint-set objects across many requests, so the identity is
        computed once per object, not once per request.  The resulting chunk
        memoises *requests* itself, so a follow-up :meth:`requests` call
        returns the original objects at zero cost.
        """
        n = len(requests)
        hint_sets: list[HintSet] = [EMPTY_HINT_SET]
        hint_index: dict[tuple, int] = {_EMPTY_IDENTITY: 0}
        # id(hints) -> hint id; the objects stay alive in *requests*.
        hint_slot: dict[int, int] = {}
        slot_of = hint_slot.get
        hint_id: list[int] = []
        for request in requests:
            hints = request.hints
            idx = slot_of(id(hints))
            if idx is None:
                identity = hints.identity()
                idx = hint_index.get(identity)
                if idx is None:
                    idx = hint_index[identity] = len(hint_sets)
                    hint_sets.append(hints)
                hint_slot[id(hints)] = idx
            hint_id.append(idx)
        client_index: dict[str, int] = {}
        index_client = client_index.setdefault
        write_kind = RequestKind.WRITE
        chunk = cls(
            np.array([request.page for request in requests], np.int64),
            np.array([request.kind is write_kind for request in requests], np.bool_),
            np.array(hint_id, np.int64),
            np.array(
                [
                    index_client(request.client_id, len(client_index))
                    for request in requests
                ],
                np.int64,
            ),
            np.arange(start_seq, start_seq + n, dtype=np.int64),
            tuple(hint_sets),
            tuple(client_index),
        )
        chunk._requests = list(requests)
        return chunk

    def requests(self) -> list[IORequest]:
        """Materialise the equivalent request list (memoised).

        The list is identical — field for field — to what the scalar
        decoder produces for the same records, so every consumer of request
        objects (``StreamedTrace.iter_chunks``) sees exactly the requests
        the trace holds.
        """
        if self._requests is None:
            read_kind = RequestKind.READ
            write_kind = RequestKind.WRITE
            hint_sets = self.hint_sets
            clients = self.clients
            self._requests = [
                IORequest(
                    page=page,
                    kind=write_kind if write else read_kind,
                    hints=hint_sets[hint],
                    client_id=clients[client],
                )
                for page, write, hint, client in zip(
                    self.page.tolist(),
                    self.write.tolist(),
                    self.hint_id.tolist(),
                    self.client_idx.tolist(),
                )
            ]
        return self._requests

    # ------------------------------------------------------------- accounting
    def present_clients(self) -> list[tuple[str, Array]]:
        """Clients appearing in this chunk, in first-appearance order.

        Returns ``(client_id, mask)`` pairs where ``mask`` is the boolean
        row-selector for that client — the per-client accounting primitive
        of the columnar engine loop.
        """
        unique, first = np.unique(self.client_idx, return_index=True)
        order = np.argsort(first, kind="stable")
        out: list[tuple[str, Array]] = []
        for position in order.tolist():
            idx = int(unique[position])
            out.append((self.clients[idx], self.client_idx == idx))
        return out


@runtime_checkable
class ColumnarStream(Protocol):
    """A re-iterable request stream that decodes into columnar chunks
    numbered from sequence number 0: the one shape in which a request stream
    reaches the replay engine (:class:`~repro.trace.cache.TraceSpec`,
    :class:`~repro.trace.binio.StreamedTrace`, :class:`ColumnarSource`,
    :class:`~repro.simulation.multiclient.InterleavedSource`)."""

    def iter_columnar(self) -> Iterator[ColumnarChunk]: ...


class ColumnarSource:
    """A request list lifted once into columnar chunks.

    The requests are cut into consecutive chunks of at most
    *chunk_requests*, each lifted with :meth:`ColumnarChunk.from_requests`
    and numbered from sequence number 0.  Every :meth:`iter_columnar` pass
    yields the same chunks, so an offline policy's index pass and the
    replay share one lift.
    """

    def __init__(
        self,
        requests: Iterable[IORequest],
        chunk_requests: int = COLUMNAR_CHUNK_REQUESTS,
    ):
        if chunk_requests <= 0:
            raise ValueError("chunk_requests must be positive")
        iterator = iter(requests)
        chunks: list[ColumnarChunk] = []
        seq = 0
        while part := list(islice(iterator, chunk_requests)):
            chunks.append(ColumnarChunk.from_requests(part, seq))
            seq += len(part)
        self._chunks = tuple(chunks)
        self._length = seq

    def __len__(self) -> int:
        return self._length

    def iter_columnar(self) -> Iterator[ColumnarChunk]:
        return iter(self._chunks)


def as_columnar(
    requests: Iterable[IORequest] | ColumnarStream,
    chunk_requests: int = COLUMNAR_CHUNK_REQUESTS,
) -> ColumnarStream:
    """*requests* as a columnar stream.

    A columnar stream is returned as it is.  A request sequence or one-shot
    iterable is lifted once, into a :class:`ColumnarSource` of
    *chunk_requests*-request chunks.
    """
    if isinstance(requests, ColumnarStream):
        return requests
    return ColumnarSource(requests, chunk_requests)
