"""The scalar BLOCK decoder: the reference the C trace decoder is held to.

:func:`_decode_block` is the pure-Python decoder that
``repro.trace.binio`` replaced with one C walk per block
(``repro/core/_trace_kernel.c``), unchanged but for one fix: a client id
that is not UTF-8 raises :class:`TraceFormatError`, not
``UnicodeDecodeError``.  :func:`reference_decoder` plugs it into
``StreamedTrace``'s own record walk, lifting its requests into chunks as
that walk once did, so a test can decode one file with both decoders and
compare the requests or the error messages.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator
from unittest import mock

from repro.core.hints import EMPTY_HINT_SET, HintSet
from repro.simulation.request import IORequest, RequestKind
from repro.trace import binio
from repro.trace.binio import _FLAG_CLIENT_ID, _FLAG_WRITE, TraceFormatError
from repro.trace.columnar import ColumnarChunk

__all__ = ["decode_block", "reference_decoder"]


def _decode_block(
    body: bytes, expected: int, hint_sets: dict[int, HintSet], offset: int
) -> list[IORequest]:
    """Decode one BLOCK payload into a list of requests."""
    requests: list[IORequest] = []
    append = requests.append
    read_kind = RequestKind.READ
    write_kind = RequestKind.WRITE
    pos = 0
    end = len(body)
    try:
        while pos < end:
            flags = body[pos]
            pos += 1
            # Inline varint decode: the two-field common case stays tight.
            page = 0
            shift = 0
            while True:
                byte = body[pos]
                pos += 1
                page |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            hint_ref = 0
            shift = 0
            while True:
                byte = body[pos]
                pos += 1
                hint_ref |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
            if hint_ref == 0:
                hints = EMPTY_HINT_SET
            else:
                hints = hint_sets[hint_ref - 1]
            if flags & _FLAG_CLIENT_ID:
                length = 0
                shift = 0
                while True:
                    byte = body[pos]
                    pos += 1
                    length |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                if pos + length > end:
                    raise IndexError(pos)
                raw = body[pos : pos + length]
                try:
                    client_id = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TraceFormatError(
                        f"byte {offset}: malformed client id: {raw[:80]!r}"
                    ) from exc
                pos += length
            else:
                client_id = hints.client_id
            append(
                IORequest(
                    page=page,
                    kind=write_kind if flags & _FLAG_WRITE else read_kind,
                    hints=hints,
                    client_id=client_id,
                )
            )
    except KeyError as exc:
        raise TraceFormatError(
            f"byte {offset}: block references undefined hint set id {exc.args[0]}"
        ) from exc
    except IndexError as exc:
        raise TraceFormatError(
            f"byte {offset}: garbled block record (ran off the end of the block)"
        ) from exc
    if pos != end or len(requests) != expected:
        raise TraceFormatError(
            f"byte {offset}: block declared {expected} requests in {end} bytes "
            f"but decoded {len(requests)} using {pos}"
        )
    return requests


def decode_block(
    body: bytes, expected: int, offset: int, seq: int, tables: Any
) -> ColumnarChunk:
    """``binio._decode_block``'s contract, met by the reference: the block's
    requests over the pass's hint sets, lifted into a chunk."""
    hint_sets = dict(enumerate(tables.hint_sets[1:]))  # ref 0 is the empty set
    requests = _decode_block(body, expected, hint_sets, offset)
    try:
        return ColumnarChunk.from_requests(requests, seq)
    except OverflowError as exc:
        raise TraceFormatError(
            f"byte {offset}: page id beyond the int64 page column"
        ) from exc


@contextlib.contextmanager
def reference_decoder() -> Iterator[None]:
    """``StreamedTrace`` decodes its blocks with the reference in this block."""
    with mock.patch.object(binio, "_decode_block", decode_block):
        yield
