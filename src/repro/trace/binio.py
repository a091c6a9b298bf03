"""Binary trace serialization: compact, streamable, dictionary-encoded.

This is the trace format, and the storage format behind the on-disk trace
cache (:mod:`repro.trace.cache`).  It dictionary-encodes hint sets — a trace
has millions of requests but only tens or hundreds of distinct hint sets,
the skew Section 5 of the paper exploits — and stores requests as
varint-packed binary records grouped into length-prefixed blocks, so that

* a :class:`BinaryTraceWriter` can stream requests to disk as a workload
  generator produces them, without ever materializing the request list; and
* a :class:`StreamedTrace` can replay the file chunk-by-chunk with bounded
  memory, re-iterably, which is what the shared-replay engine consumes.

The precise byte layout (header, hint-set dictionary, block records, footer,
versioning) is specified in ``docs/trace-format.md``.  In short::

    magic "CLICBT" + version       header
    0x01 META                      JSON metadata (may repeat; later wins)
    0x02 HINTSET                   one dictionary entry per distinct hint set
    0x03 BLOCK                     a length-prefixed group of request records
    0x04 END                       request count + final metadata
    footer                         offset of END + trailing magic

The END/footer pair makes truncation detectable and lets a reader fetch the
trace's name, metadata and request count without scanning the blocks.
"""

from __future__ import annotations

import io as _io
import json
import os
import struct
from pathlib import Path
from types import TracebackType
from typing import Any, BinaryIO, Iterable, Iterator

import numpy as _np

from repro.core.hints import EMPTY_HINT_SET, HintSet
from repro.core.kernel import address, load
from repro.simulation.request import IORequest
from repro.trace.columnar import ColumnarChunk
from repro.trace.records import Trace

__all__ = [
    "BinaryTraceWriter",
    "StreamedTrace",
    "TraceFormatError",
    "write_trace_binary",
    "FORMAT_VERSION",
]

#: Version byte of the on-disk layout; bump on any incompatible change.
FORMAT_VERSION = 1

_MAGIC = b"CLICBT"                      # header: magic + version byte
_TRAILER_MAGIC = b"CLICEND\x00"
_FOOTER = struct.Struct("<Q8s")          # END-record offset + trailer magic

_TAG_META = 0x01
_TAG_HINTSET = 0x02
_TAG_BLOCK = 0x03
_TAG_END = 0x04

#: Requests per BLOCK record; also the reader's natural chunk size.
BLOCK_REQUESTS = 4096

_FLAG_WRITE = 0x01          # request is a write (reads have the bit clear)
_FLAG_CLIENT_ID = 0x02      # an explicit client id string follows the record

# trace_block's statuses (src/repro/core/_trace_kernel.c).
_BLOCK_RAN_OFF = 1
_BLOCK_UNDEFINED_HINT = 2
_BLOCK_COUNT = 3
_BLOCK_PAGE_OVERFLOW = 4

_INT64_MAX = 2**63 - 1

#: Hint sets by HINTSET payload, shared by every pass in the process: the
#: passes over one trace (an interleaving's pre-scan, a shared and a
#: private replay) meet the same few hundred payloads.  Bounded: a full
#: table starts afresh.
_HINT_SETS: dict[bytes, HintSet] = {}
_HINT_SETS_MAX = 4096


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed.

    The message reports the byte offset of the offending record, and no
    ``KeyError``/``ValueError``/``json.JSONDecodeError`` escapes the reader.
    """


def _encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError(f"varint fields must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _encode_hint_set(hints: HintSet) -> bytes:
    """The JSON payload of a HINTSET record."""
    return json.dumps(
        {"client": hints.client_id, "names": list(hints.names), "values": list(hints.values)},
        separators=(",", ":"),
    ).encode("utf-8")


def _decode_hint_set(payload: bytes, offset: int) -> HintSet:
    """The hint set of the HINTSET record at byte *offset*, parsed once per
    process (:data:`_HINT_SETS`)."""
    hints = _HINT_SETS.get(payload)
    if hints is None:
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"byte {offset}: malformed hint set definition: {payload[:80]!r}"
            ) from exc
        try:
            data = json.loads(text)
            hints = HintSet(
                client_id=data["client"],
                names=tuple(data["names"]),
                values=tuple(data["values"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"byte {offset}: malformed hint set definition: {text!r}"
            ) from exc
        if len(_HINT_SETS) >= _HINT_SETS_MAX:
            _HINT_SETS.clear()
        _HINT_SETS[payload] = hints
    return hints


class BinaryTraceWriter:
    """Streams I/O requests into a binary trace file.

    Usage::

        with BinaryTraceWriter(path, name="DB2_C60", metadata={...}) as writer:
            for request in generator:
                writer.write(request)
            writer.update_metadata({"first_tier_hit_ratio": ratio})

    Requests are buffered into BLOCK records of :data:`BLOCK_REQUESTS`
    requests; hint-set dictionary entries are emitted on first use, before the
    block that references them.  ``update_metadata`` merges keys into the
    final META payload stored in the END record, so metadata only known after
    generation (e.g. the first-tier hit ratio) still lands in the file
    without a second pass.
    """

    def __init__(self, path: str | Path, name: str = "", metadata: dict | None = None):
        self._path = Path(path)
        self._handle = self._path.open("wb")
        self._handle.write(_MAGIC + bytes([FORMAT_VERSION]))
        self._hint_ids: dict[tuple, int] = {}
        self._pending: list[IORequest] = []
        self._count = 0
        self._closed = False
        self._final_metadata: dict = {}
        self._write_meta({"name": name, **(metadata or {})})

    # ------------------------------------------------------------------ write
    def write(self, request: IORequest) -> None:
        self._pending.append(request)
        self._count += 1
        if len(self._pending) >= BLOCK_REQUESTS:
            self._flush_block()

    def write_all(self, requests: Iterable[IORequest]) -> int:
        """Write every request of *requests*; returns the number written."""
        before = self._count
        for request in requests:
            self.write(request)
        return self._count - before

    def update_metadata(self, metadata: dict) -> None:
        """Merge *metadata* into the final META record written at close."""
        self._final_metadata.update(metadata)

    @property
    def request_count(self) -> int:
        return self._count

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        if self._closed:
            return
        self._flush_block()
        end_offset = self._handle.tell()
        meta_payload = json.dumps(
            self._final_metadata, separators=(",", ":"), default=str
        ).encode("utf-8")
        self._handle.write(bytes([_TAG_END]))
        self._handle.write(_encode_varint(self._count))
        self._handle.write(_encode_varint(len(meta_payload)))
        self._handle.write(meta_payload)
        self._handle.write(_FOOTER.pack(end_offset, _TRAILER_MAGIC))
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            # Abandon a half-written file rather than sealing it with a
            # footer: readers must never mistake it for a complete trace.
            self._handle.close()
            self._closed = True
            self._path.unlink(missing_ok=True)
        else:
            self.close()

    # --------------------------------------------------------------- encoding
    def _write_meta(self, payload: dict) -> None:
        data = json.dumps(payload, separators=(",", ":"), default=str).encode("utf-8")
        self._handle.write(bytes([_TAG_META]) + _encode_varint(len(data)) + data)

    def _hint_ref(self, hints: HintSet) -> int:
        # identity(), not key(): the key omits hint names (they are implied
        # by a client's schema at simulation time), but the serialized
        # dictionary must distinguish sets that differ only in their names.
        key = hints.identity()
        if key == ("", (), ()):
            return 0
        hint_id = self._hint_ids.get(key)
        if hint_id is None:
            hint_id = len(self._hint_ids)
            self._hint_ids[key] = hint_id
            payload = _encode_hint_set(hints)
            # Dictionary entries precede the block that first references them.
            self._handle.write(
                bytes([_TAG_HINTSET])
                + _encode_varint(hint_id)
                + _encode_varint(len(payload))
                + payload
            )
        return hint_id + 1

    def _flush_block(self) -> None:
        if not self._pending:
            return
        encode_varint = _encode_varint
        body = bytearray()
        for request in self._pending:
            flags = 0 if request.is_read else _FLAG_WRITE
            client_bytes = b""
            if request.client_id != request.hints.client_id:
                flags |= _FLAG_CLIENT_ID
                client_bytes = request.client_id.encode("utf-8")
            hint_ref = self._hint_ref(request.hints)
            body.append(flags)
            body += encode_varint(request.page)
            body += encode_varint(hint_ref)
            if flags & _FLAG_CLIENT_ID:
                body += encode_varint(len(client_bytes))
                body += client_bytes
        self._handle.write(
            bytes([_TAG_BLOCK])
            + encode_varint(len(self._pending))
            + encode_varint(len(body))
        )
        self._handle.write(body)
        self._pending.clear()


def write_trace_binary(trace: Trace, path: str | Path) -> None:
    """Write an in-memory :class:`Trace` to *path* in the binary format."""
    with BinaryTraceWriter(path, name=trace.name, metadata=dict(trace.metadata)) as writer:
        writer.write_all(trace)


class StreamedTrace:
    """A re-iterable, chunked view of a binary trace file.

    Opening the file parses only the header and the END/footer records, so
    the name, metadata and request count are available immediately;
    iterating replays the BLOCK records one at a time, decoding at most one
    block (:data:`BLOCK_REQUESTS` requests) into memory at once.  Each
    iteration opens a fresh file handle, so the same object can feed an
    offline policy's preparation pass and the replay pass: it is a
    columnar stream (:meth:`iter_columnar`) for the shared-replay engine.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.name: str = self.path.stem
        self.metadata: dict = {}
        self._request_count = 0
        self._read_summary()

    # ----------------------------------------------------------- introspection
    def __len__(self) -> int:
        return self._request_count

    @property
    def request_count(self) -> int:
        return self._request_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamedTrace({self.name!r}, {self._request_count} requests, "
            f"path={str(self.path)!r})"
        )

    # -------------------------------------------------------------- iteration
    def iter_chunks(self) -> Iterator[list[IORequest]]:
        """Yield the trace as successive lists of requests (one per block):
        the requests of each :meth:`iter_columnar` chunk, which :meth:`load`
        materializes."""
        for chunk in self.iter_columnar():
            yield chunk.requests()

    def iter_columnar(self) -> Iterator[ColumnarChunk]:
        """Yield the trace as :class:`ColumnarChunk` batches (one per BLOCK).

        Each block decodes in one C walk (:func:`_decode_block`) straight
        into numpy columns, without materialising ``IORequest`` objects.
        Every chunk of a pass carries the pass's hint-set and client tables.
        """
        with self.path.open("rb") as handle:
            self._check_header(handle)
            size = os.fstat(handle.fileno()).st_size
            tables = _PassTables()
            count = 0
            while True:
                offset = handle.tell()
                tag_byte = handle.read(1)
                if not tag_byte:
                    raise TraceFormatError(
                        f"{self.path.name}: unexpected end of file at byte {offset} "
                        "(missing END record — truncated trace?)"
                    )
                tag = tag_byte[0]
                if tag == _TAG_META:
                    length = _read_varint(handle, offset)
                    _read_exact(handle, length, offset, size)
                elif tag == _TAG_HINTSET:
                    hint_id = _read_varint(handle, offset)
                    length = _read_varint(handle, offset)
                    payload = _read_exact(handle, length, offset, size)
                    defined = len(tables.hint_sets) - 1  # ref 0 is the empty set
                    if hint_id != defined:
                        raise TraceFormatError(
                            f"byte {offset}: hint set ids must be dense and "
                            f"ascending (got {hint_id}, expected {defined})"
                        )
                    tables.add(_decode_hint_set(payload, offset))
                elif tag == _TAG_BLOCK:
                    expected = _read_varint(handle, offset)
                    length = _read_varint(handle, offset)
                    body = _read_exact(handle, length, offset, size)
                    chunk = _decode_block(body, expected, offset, count, tables)
                    count += len(chunk)
                    yield chunk
                elif tag == _TAG_END:
                    declared = _read_varint(handle, offset)
                    if declared != count:
                        raise TraceFormatError(
                            f"byte {offset}: END declares {declared} requests "
                            f"but {count} were decoded"
                        )
                    return
                else:
                    raise TraceFormatError(
                        f"byte {offset}: unknown record tag 0x{tag:02x}"
                    )

    # ----------------------------------------------------------------- loading
    def load(self) -> Trace:
        """Materialize the whole file as an in-memory :class:`Trace`."""
        requests: list[IORequest] = []
        for chunk in self.iter_chunks():
            requests.extend(chunk)
        return Trace(name=self.name, requests_list=requests, metadata=dict(self.metadata))

    # ---------------------------------------------------------------- parsing
    def _check_header(self, handle: BinaryIO) -> None:
        header = handle.read(len(_MAGIC) + 1)
        if len(header) < len(_MAGIC) + 1 or header[: len(_MAGIC)] != _MAGIC:
            raise TraceFormatError(f"{self.path.name}: not a binary trace (bad magic)")
        version = header[len(_MAGIC)]
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{self.path.name}: unsupported binary trace version {version} "
                f"(this reader supports version {FORMAT_VERSION})"
            )

    def _read_summary(self) -> None:
        """Parse header, META records and the END record (via the footer)."""
        with self.path.open("rb") as handle:
            self._check_header(handle)
            handle.seek(0, _io.SEEK_END)
            size = handle.tell()
            if size < len(_MAGIC) + 1 + _FOOTER.size:
                raise TraceFormatError(f"{self.path.name}: truncated binary trace")
            handle.seek(size - _FOOTER.size)
            end_offset, trailer = _FOOTER.unpack(handle.read(_FOOTER.size))
            if trailer != _TRAILER_MAGIC:
                raise TraceFormatError(
                    f"{self.path.name}: bad trailer magic (truncated or not a "
                    "binary trace)"
                )
            if not (len(_MAGIC) + 1 <= end_offset < size - _FOOTER.size):
                raise TraceFormatError(
                    f"{self.path.name}: END offset {end_offset} out of range"
                )
            handle.seek(end_offset)
            tag = _read_exact(handle, 1, end_offset, size)[0]
            if tag != _TAG_END:
                raise TraceFormatError(
                    f"byte {end_offset}: footer does not point at an END record"
                )
            self._request_count = _read_varint(handle, end_offset)
            length = _read_varint(handle, end_offset)
            final_meta = _decode_meta(
                _read_exact(handle, length, end_offset, size), end_offset
            )

            # Initial META records sit between the header and the first
            # hint-set/block record; read them for the name + generation
            # metadata, then overlay the final metadata from the END record.
            handle.seek(len(_MAGIC) + 1)
            metadata: dict = {}
            while True:
                offset = handle.tell()
                peek = handle.read(1)
                if not peek or peek[0] != _TAG_META:
                    break
                length = _read_varint(handle, offset)
                metadata.update(
                    _decode_meta(_read_exact(handle, length, offset, size), offset)
                )
            metadata.update(final_meta)
            # The name lives in self.name only, so self.metadata matches the
            # metadata dict of the equivalent materialized Trace exactly.
            self.name = metadata.pop("name", self.path.stem) or self.path.stem
            self.metadata = metadata


def _decode_meta(payload: bytes, offset: int) -> dict:
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"byte {offset}: malformed metadata JSON") from exc
    if not isinstance(data, dict):
        raise TraceFormatError(f"byte {offset}: metadata must be a JSON object")
    return data


def _read_exact(handle: BinaryIO, length: int, offset: int, size: int) -> bytes:
    """*length* bytes of the record at byte *offset* of a *size*-byte file.

    A length past the end of the file raises without asking for it, so a
    corrupt length varint cannot allocate more than the file holds.
    """
    data = handle.read(min(length, size - offset))
    if len(data) != length:
        raise TraceFormatError(
            f"byte {offset}: unexpected end of file (wanted {length} bytes, "
            f"got {len(data)} — truncated trace?)"
        )
    return data


def _read_varint(handle: BinaryIO, offset: int) -> int:
    result = 0
    shift = 0
    while True:
        byte = handle.read(1)
        if not byte:
            raise TraceFormatError(
                f"byte {offset}: unexpected end of file inside a varint"
            )
        value = byte[0]
        result |= (value & 0x7F) << shift
        if not value & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise TraceFormatError(f"byte {offset}: varint longer than 9 bytes")


class _PassTables:
    """The lookup tables every chunk of one pass over a file shares.

    ``hint_sets[ref]`` is the hint set of on-wire hint ref *ref* (0 is the
    empty hint set), and client index 0 is ``""``.  Both grow as the pass
    meets HINTSET records and explicit client ids.  The tuples a chunk
    carries are built when a block needs the grown tables, so the blocks
    between two changes share one tuple.
    """

    def __init__(self) -> None:
        self.hint_sets: list[HintSet] = [EMPTY_HINT_SET]
        self._hint_client: list[int] = [0]  # each hint set's client index
        self._clients: dict[str, int] = {"": 0}
        self._hint_table: tuple[HintSet, ...] | None = None
        self._client_table: tuple[str, ...] | None = None
        self._hint_client_column: Any = None
        self._hint_client_address = 0

    def add(self, hints: HintSet) -> None:
        """Define the next hint ref."""
        self.hint_sets.append(hints)
        self._hint_client.append(self.client(hints.client_id))
        self._hint_table = self._hint_client_column = None

    def client(self, client_id: str) -> int:
        """The client index of *client_id*, assigning the next one if it is new."""
        index = self._clients.get(client_id)
        if index is None:
            index = self._clients[client_id] = len(self._clients)
            self._client_table = None
        return index

    def hint_clients(self) -> int:
        """The address of the int64 column of each hint ref's client index."""
        if self._hint_client_column is None:
            self._hint_client_column = _np.array(self._hint_client, _np.int64)
            self._hint_client_address = address(self._hint_client_column)
        return self._hint_client_address

    def chunk(self, page: Any, write: Any, hint: Any, client: Any, seq: int) -> ColumnarChunk:
        """A chunk over the current tables, numbered from *seq*."""
        if self._hint_table is None:
            self._hint_table = tuple(self.hint_sets)
        if self._client_table is None:
            self._client_table = tuple(self._clients)
        n = len(page)
        return ColumnarChunk(
            page,
            write,
            hint,
            client,
            _np.arange(seq, seq + n, dtype=_np.int64),
            self._hint_table,
            self._client_table,
        )


def _decode_block(
    body: bytes, expected: int, offset: int, seq: int, tables: _PassTables
) -> ColumnarChunk:
    """Decode the BLOCK record at byte *offset*, whose *body* declares
    *expected* requests, into a chunk over the pass's *tables* numbered from
    *seq*.

    One ``trace_block`` call walks the body, writes its columns and checks
    it; a failing status and the position it stopped at map onto the
    :class:`TraceFormatError` message.  The rare explicit client ids are
    decoded here, from the byte spans a second walk reports.
    """
    trace_block = load().trace_block
    size = len(body)
    capacity = size // 3  # a record is at least three bytes
    # The page, hint-ref and client-index columns, then the result.
    out = _np.empty(3 * capacity + 3, _np.int64)
    write = _np.empty(capacity, _np.bool_)
    at = address(out)
    # A count past int64 cannot match the body's records; clamped, it
    # still does not.
    args = (
        body, size, min(expected, _INT64_MAX), len(tables.hint_sets),
        tables.hint_clients(), at, at + 8 * capacity, at + 16 * capacity, address(write),
    )
    status = trace_block(*args, None, at + 24 * capacity)
    n, position, explicit = out[3 * capacity :].tolist()
    client = out[2 * capacity : 2 * capacity + n]
    if explicit:
        spans = _np.empty(3 * explicit, _np.int64)
        trace_block(*args, address(spans), at + 24 * capacity)
        records = spans.tolist()
        # In record order, so a client id that is not UTF-8 fails before
        # anything the walk stopped at later.
        for record, start, stop in zip(records[0::3], records[1::3], records[2::3]):
            raw = body[start:stop]
            try:
                client_id = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceFormatError(
                    f"byte {offset}: malformed client id: {raw[:80]!r}"
                ) from exc
            client[record] = tables.client(client_id)
    if status == _BLOCK_RAN_OFF:
        raise TraceFormatError(
            f"byte {offset}: garbled block record (ran off the end of the block)"
        )
    if status == _BLOCK_UNDEFINED_HINT:
        raise TraceFormatError(
            f"byte {offset}: block references undefined hint set id "
            f"{_varint_at(body, position) - 1}"
        )
    if status == _BLOCK_COUNT:
        raise TraceFormatError(
            f"byte {offset}: block declared {expected} requests in {size} bytes "
            f"but decoded {n} using {position}"
        )
    if status == _BLOCK_PAGE_OVERFLOW:
        raise TraceFormatError(f"byte {offset}: page id beyond the int64 page column")
    return tables.chunk(out[:n], write[:n], out[capacity : capacity + n], client, seq)


def _varint_at(body: bytes, pos: int) -> int:
    """The varint at *pos* of *body*, which holds all of it, at any width."""
    value = shift = 0
    while True:
        byte = body[pos]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        pos += 1
        shift += 7
