"""Tests for the binary trace format: round trips, streaming, error paths."""

from __future__ import annotations

import functools
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hints import EMPTY_HINT_SET, make_hint_set
from repro.simulation.request import IORequest, RequestKind
from repro.trace import binio
from repro.trace.binio import (
    BLOCK_REQUESTS,
    BinaryTraceWriter,
    StreamedTrace,
    TraceFormatError,
    _encode_varint,
    write_trace_binary,
)
from repro.trace.records import Trace

from tests import trace_reference
from tests.conftest import hint, rd, stream_requests, wr
from tests.strategies import traces as traces_strategy
from tests.trace_reference import reference_decoder


def sample_trace() -> Trace:
    hot = hint("db2", object_id=1, request_type="read")
    cold = hint("db2", object_id=2, request_type="replacement_write")
    requests = [rd(1, hot), rd(2, hot), wr(3, cold), rd(1, hot), wr(3, cold), rd(9)]
    return Trace(name="sample", requests_list=requests, metadata={"seed": 7, "f": 0.25})


# Round-trip inputs come from the shared strategy pool (tests/strategies.py).
traces = traces_strategy()


def assert_traces_equal(a: Trace, b: Trace) -> None:
    assert a.name == b.name
    assert len(a) == len(b)
    assert a.requests() == b.requests()
    assert a.metadata == b.metadata


# --------------------------------------------------------------- round trips


class TestRoundTrips:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(trace=traces)
    def test_binary_round_trip(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("bin") / "t.ctb"
        write_trace_binary(trace, path)
        assert_traces_equal(StreamedTrace(path).load(), trace)

    def test_round_trip_across_block_boundaries(self, tmp_path):
        h = make_hint_set("c", object_id=1)
        requests = [rd(i % 97, h) if i % 3 else wr(i % 97, h) for i in range(BLOCK_REQUESTS * 2 + 5)]
        trace = Trace(name="big", requests_list=requests)
        path = tmp_path / "big.ctb"
        write_trace_binary(trace, path)
        assert StreamedTrace(path).load().requests() == requests

    def test_explicit_client_id_preserved(self, tmp_path):
        h = make_hint_set("db2", object_id=1)
        trace = Trace(
            name="x",
            requests_list=[IORequest(page=1, kind=RequestKind.READ, hints=h, client_id="other")],
        )
        path = tmp_path / "x.ctb"
        write_trace_binary(trace, path)
        loaded = StreamedTrace(path).load()
        assert loaded[0].client_id == "other"
        assert loaded[0].hints.client_id == "db2"

    def test_hint_dictionary_is_shared_instances(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.ctb"
        write_trace_binary(trace, path)
        loaded = StreamedTrace(path).load()
        # All requests with the same hint set share one decoded instance, so
        # the memoised HintSet.key() is shared across the replay.
        assert loaded[0].hints is loaded[1].hints


# ----------------------------------------------------------------- streaming


class TestStreaming:
    def test_streamed_matches_materialized(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.ctb"
        write_trace_binary(trace, path)
        streamed = StreamedTrace(path)
        assert stream_requests(streamed) == trace.requests()
        assert len(streamed) == len(trace)
        assert streamed.name == "sample"
        assert streamed.metadata["seed"] == 7

    def test_reiterable(self, tmp_path):
        path = tmp_path / "t.ctb"
        write_trace_binary(sample_trace(), path)
        streamed = StreamedTrace(path)
        assert stream_requests(streamed) == stream_requests(streamed)

    def test_chunks_cover_stream_in_order(self, tmp_path):
        h = make_hint_set("c", object_id=0)
        requests = [rd(i, h) for i in range(BLOCK_REQUESTS + 10)]
        path = tmp_path / "t.ctb"
        write_trace_binary(Trace(name="t", requests_list=requests), path)
        chunks = list(StreamedTrace(path).iter_chunks())
        assert len(chunks) == 2
        assert [len(chunks[0]), len(chunks[1])] == [BLOCK_REQUESTS, 10]
        assert [r for chunk in chunks for r in chunk] == requests

    def test_writer_streams_without_trace_object(self, tmp_path):
        path = tmp_path / "gen.ctb"
        h = make_hint_set("c", object_id=3)
        with BinaryTraceWriter(path, name="gen", metadata={"kind": "synthetic"}) as writer:
            for i in range(10):
                writer.write(rd(i, h))
            writer.update_metadata({"emitted": writer.request_count})
        loaded = StreamedTrace(path).load()
        assert len(loaded) == 10
        assert loaded.metadata == {"kind": "synthetic", "emitted": 10}

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "broken.ctb"
        with pytest.raises(RuntimeError):
            with BinaryTraceWriter(path, name="broken") as writer:
                writer.write(rd(1))
                raise RuntimeError("generator blew up")
        assert not path.exists()


# --------------------------------------------------------------- error paths


def _write_sample(tmp_path):
    path = tmp_path / "t.ctb"
    write_trace_binary(sample_trace(), path)
    return path


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ctb"
        path.write_bytes(b"NOTATRACE" * 4)
        with pytest.raises(TraceFormatError, match="magic"):
            StreamedTrace(path)

    def test_unsupported_version(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        data[6] = 99  # version byte follows the 6-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version 99"):
            StreamedTrace(path)

    def test_truncated_file(self, tmp_path):
        path = _write_sample(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(TraceFormatError, match="truncated|trailer"):
            StreamedTrace(path)

    def test_truncation_detected_by_streaming(self, tmp_path):
        """A file cut off mid-blocks fails even if iteration starts fine."""
        path = _write_sample(tmp_path)
        streamed = StreamedTrace(path)
        data = path.read_bytes()
        # Rewrite with the END record and footer stripped: the summary was
        # already parsed, so only iteration notices.
        path.write_bytes(data[:20])
        with pytest.raises(TraceFormatError):
            list(streamed.iter_columnar())

    def test_undefined_hint_set_id(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        # Corrupt the first request record's hint reference to an undefined
        # id: find the first BLOCK tag (0x03) after the dictionary entries.
        idx = data.index(bytes([0x03]), 7)
        # BLOCK: tag, varint count, varint length, then flags byte, page
        # varint, hint varint.  The sample's first request is page 1, hint 1:
        # bytes [flags, 0x01, 0x01].  Bump the hint ref far out of range.
        body_start = idx + 3
        assert data[body_start + 1] == 0x01 and data[body_start + 2] == 0x01
        data[body_start + 2] = 0x7F
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="undefined hint set id"):
            list(StreamedTrace(path).iter_columnar())

    def test_end_count_mismatch(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        end_offset = struct.unpack("<Q", data[-16:-8])[0]
        assert data[end_offset] == 0x04
        data[end_offset + 1] = 0x05  # sample has 6 requests; claim 5
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="declares 5 requests"):
            list(StreamedTrace(path).iter_columnar())

    def test_metadata_must_be_object(self, tmp_path):
        path = tmp_path / "bad.ctb"
        payload = json.dumps([1, 2]).encode()
        body = b"CLICBT" + bytes([1]) + bytes([0x01, len(payload)]) + payload
        end_offset = len(body)
        body += bytes([0x04, 0, 2]) + b"{}"
        body += struct.pack("<Q8s", end_offset, b"CLICEND\x00")
        path.write_bytes(body)
        with pytest.raises(TraceFormatError, match="JSON object"):
            StreamedTrace(path)

    @pytest.mark.parametrize(
        "payload, shown",
        [
            (b"{not json}", repr("{not json}")),
            (b'{"client":"c","names":[]}', repr('{"client":"c","names":[]}')),
            (
                b'{"client":"c","names":["a"],"values":[]}',
                repr('{"client":"c","names":["a"],"values":[]}'),
            ),
            (b"\xff{}", repr(b"\xff{}")),
        ],
        ids=["not-json", "missing-field", "unpaired-name", "not-utf8"],
    )
    def test_malformed_hint_set_definition(self, tmp_path, payload, shown):
        """A HINTSET payload that is not the JSON hint-set object names the
        record's offset and the payload."""
        path = tmp_path / "bad.ctb"
        body = bytearray(b"CLICBT" + bytes([1]))
        body += bytes([0x02, 0x00, len(payload)]) + payload
        path.write_bytes(_finish_file(body, count=0))
        with pytest.raises(TraceFormatError) as excinfo:
            list(StreamedTrace(path).iter_columnar())
        assert str(excinfo.value) == f"byte 7: malformed hint set definition: {shown}"


# ------------------------------------------------- columnar decode edge cases


def _finish_file(body: bytearray, count: int) -> bytes:
    """Append a well-formed END record + footer declaring *count* requests."""
    end_offset = len(body)
    body += bytes([0x04, count, 2]) + b"{}"
    body += struct.pack("<Q8s", end_offset, b"CLICEND\x00")
    return bytes(body)


def _chunks(path) -> list[list[IORequest]]:
    """The requests of each chunk ``StreamedTrace`` decodes from *path*."""
    return [chunk.requests() for chunk in StreamedTrace(path).iter_columnar()]


def _agreeing_chunks(path) -> list[list[IORequest]]:
    """The decoded chunks of *path*; asserts that the reference decoder,
    driven by the same record walk, decodes the same requests, block for
    block."""
    chunks = _chunks(path)
    with reference_decoder():
        assert _chunks(path) == chunks
    return chunks


def _both_raise(path, match: str) -> None:
    """*path* fails with the same TraceFormatError message, matching
    *match*, under the C decoder and under the reference."""
    with pytest.raises(TraceFormatError, match=match) as ours:
        list(StreamedTrace(path).iter_columnar())
    with reference_decoder(), pytest.raises(TraceFormatError) as reference:
        list(StreamedTrace(path).iter_columnar())
    assert str(ours.value) == str(reference.value)


class TestColumnarDecodeEdgeCases:
    """The C decoder agrees with the reference (``tests/trace_reference.py``)
    on the decoder's corners: empty blocks, single-request blocks, 9-byte
    varints, and garbled blocks (same TraceFormatError, same message)."""

    def test_empty_block_decodes_identically(self, tmp_path):
        # An empty BLOCK (count 0, length 0) is valid: one empty chunk.
        path = tmp_path / "empty.ctb"
        body = bytearray(b"CLICBT" + bytes([1]))
        body += bytes([0x03, 0x00, 0x00])
        path.write_bytes(_finish_file(body, count=0))

        streamed = StreamedTrace(path)
        assert list(streamed.iter_chunks()) == [[]]
        (chunk,) = streamed.iter_columnar()
        assert len(chunk) == 0
        assert _agreeing_chunks(path) == [[]]

    def test_single_request_block_decodes_columnar(self, tmp_path):
        path = tmp_path / "one.ctb"
        hints = hint("db2", object_id=9)
        with BinaryTraceWriter(path, name="one") as writer:
            writer.write(rd(5, hints))
        (chunk,) = StreamedTrace(path).iter_columnar()
        # Decoded into columns over the pass's tables, not lifted from
        # requests.
        assert chunk._requests is None
        assert chunk.hint_sets == (EMPTY_HINT_SET, hints)
        assert chunk.seq.tolist() == [0]
        assert _agreeing_chunks(path) == [[rd(5, hints)]]

    def test_nine_byte_page_varint_decodes_as_the_reference(self, tmp_path):
        # page = 2**60 needs a 9-byte varint; its value fits the int64 page
        # column.
        big = 2**60
        record = bytes([0]) + _encode_varint(big) + _encode_varint(0)
        assert len(_encode_varint(big)) == 9
        (request,) = trace_reference._decode_block(record, 1, {}, 0)
        assert request.page == big

        path = tmp_path / "big.ctb"
        with BinaryTraceWriter(path, name="big") as writer:
            writer.write(rd(big))
            writer.write(rd(1))
        (chunk,) = StreamedTrace(path).iter_columnar()
        assert chunk.page.tolist() == [big, 1]
        assert _agreeing_chunks(path) == [[rd(big), rd(1)]]

    def test_garbled_block_raises_identically_on_both_paths(self, tmp_path):
        # A BLOCK declaring one request with an empty body is garbled.
        path = tmp_path / "garbled.ctb"
        body = bytearray(b"CLICBT" + bytes([1]))
        body += bytes([0x03, 0x01, 0x00])
        path.write_bytes(_finish_file(body, count=1))
        _both_raise(path, "declared 1 requests in 0 bytes but decoded 0 using 0")

    def test_truncated_record_raises_identically_on_both_paths(self, tmp_path):
        # A record cut off inside its page varint runs off the block.
        path = tmp_path / "cut.ctb"
        body = bytearray(b"CLICBT" + bytes([1]))
        payload = bytes([0x00, 0x80])  # flags + dangling continuation byte
        body += bytes([0x03, 0x01, len(payload)]) + payload
        path.write_bytes(_finish_file(body, count=1))
        _both_raise(path, "garbled block record")

    def test_client_id_that_is_not_utf8_raises(self, tmp_path):
        # An explicit client id of two bytes that are not UTF-8.
        path = tmp_path / "latin1.ctb"
        body = bytearray(b"CLICBT" + bytes([1]))
        record = bytes([0x02, 0x05, 0x00, 0x02]) + b"\xff\xfe"
        body += bytes([0x03, 0x01, len(record)]) + record
        path.write_bytes(_finish_file(body, count=1))
        _both_raise(path, r"byte 7: malformed client id: b'\\xff\\xfe'")
        with pytest.raises(TraceFormatError, match="malformed client id"):
            StreamedTrace(path).load()

    @pytest.mark.parametrize("tag", ["META", "HINTSET", "BLOCK", "END"])
    def test_length_past_the_end_of_the_file_raises(self, tmp_path, tag):
        # A length varint of 2**40: asking the file for that many bytes
        # would fail to allocate them.
        huge = _encode_varint(2**40)
        body = bytearray(b"CLICBT" + bytes([1]))
        if tag == "META":
            body += bytes([0x01]) + huge
        elif tag == "HINTSET":
            body += bytes([0x02, 0x00]) + huge
        elif tag == "BLOCK":
            body += bytes([0x03, 0x01]) + huge
        end_offset = len(body)
        body += bytes([0x04, 0x00]) + (huge if tag == "END" else bytes([2]) + b"{}")
        body += struct.pack("<Q8s", end_offset, b"CLICEND\x00")
        path = tmp_path / "huge.ctb"
        path.write_bytes(bytes(body))
        with pytest.raises(TraceFormatError, match=f"wanted {2**40} bytes, got "):
            list(StreamedTrace(path).iter_columnar())


# ------------------------------------------------------ one record walker


def _varint_at(data: bytes, pos: int) -> tuple[int, int]:
    """Decode the varint at *pos*; returns ``(value, position after it)``."""
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _record_offsets(data: bytes) -> list[tuple[int, int]]:
    """``(tag, offset)`` of every record between the header and END."""
    records = []
    pos = 7  # magic + version byte
    while True:
        tag = data[pos]
        records.append((tag, pos))
        if tag == 0x04:
            return records
        if tag == 0x02:
            _, body = _varint_at(data, pos + 1)
            length, body = _varint_at(data, body)
        elif tag == 0x03:
            _, body = _varint_at(data, pos + 1)
            length, body = _varint_at(data, body)
        else:
            length, body = _varint_at(data, pos + 1)
        pos = body + length


def _mixed_requests() -> list[IORequest]:
    """Two full blocks of plain records, then a block mixing plain records
    with records whose client id differs from their hint set's."""
    hot = hint("db2", object_id=1)
    cold = hint("db2", object_id=2, request_type="replacement_write")
    plain = [
        rd(page, hot) if page % 3 else wr(page, cold)
        for page in range(2 * BLOCK_REQUESTS)
    ]
    tail = [
        IORequest(page, RequestKind.READ, hot, "mysql" if page % 2 else "db2")
        for page in range(300)
    ]
    return plain + tail


class TestDecodersAgree:
    """The C decoder and the reference decoder, driven by the same record
    walk, decode the same requests, block for block, and raise the same
    TraceFormatError on every kind of corruption (a record that runs off
    its block is ``TestColumnarDecodeEdgeCases``' truncated record)."""

    def _write(self, tmp_path, requests):
        path = tmp_path / "t.ctb"
        with BinaryTraceWriter(path, name="t") as writer:
            writer.write_all(requests)
        return path

    def test_plain_blocks(self, tmp_path):
        requests = _mixed_requests()[: 2 * BLOCK_REQUESTS]
        chunks = _agreeing_chunks(self._write(tmp_path, requests))
        assert [len(chunk) for chunk in chunks] == [BLOCK_REQUESTS, BLOCK_REQUESTS]
        assert [r for chunk in chunks for r in chunk] == requests

    def test_explicit_client_ids(self, tmp_path):
        hints = hint("db2", object_id=7)
        requests = [
            IORequest(page, RequestKind.WRITE, hints, f"tenant-{page % 3}")
            for page in range(500)
        ]
        path = self._write(tmp_path, requests)
        chunks = _agreeing_chunks(path)
        assert [r for chunk in chunks for r in chunk] == requests
        # The chunk carries the pass's tables: the hint set's client, then
        # the explicit ids in first-seen order.
        (chunk,) = StreamedTrace(path).iter_columnar()
        assert chunk.clients == ("", "db2", "tenant-0", "tenant-1", "tenant-2")
        assert chunk.hint_sets == (EMPTY_HINT_SET, hints)

    def test_mixed_blocks(self, tmp_path):
        requests = _mixed_requests()
        chunks = _agreeing_chunks(self._write(tmp_path, requests))
        assert [len(chunk) for chunk in chunks] == [BLOCK_REQUESTS, BLOCK_REQUESTS, 300]
        assert [r for chunk in chunks for r in chunk] == requests

    def test_pages_beyond_the_vector_lane(self, tmp_path):
        # Pages of 2**56 and more need 9-byte varints.  Chunk columns are
        # int64, so 2**63 - 1 is the largest page either decoder accepts.
        requests = [rd(2**56), wr(2**56 + 1), rd(2**63 - 1), rd(3)]
        chunks = _agreeing_chunks(self._write(tmp_path, requests))
        assert chunks == [requests]

    def test_page_beyond_the_page_column(self, tmp_path):
        # The format's varints carry any page, a chunk's int64 column does
        # not: such a block fails loudly instead of overflowing numpy.
        path = self._write(tmp_path, [rd(1), rd(2**63)])
        _both_raise(path, "page id beyond the int64 page column")

    def test_truncated_body(self, tmp_path):
        path = _write_sample(tmp_path)
        streamed = StreamedTrace(path)
        data = path.read_bytes()
        (block,) = [offset for tag, offset in _record_offsets(data) if tag == 0x03]
        path.write_bytes(data[: block + 6])  # cut inside the block body
        with pytest.raises(TraceFormatError, match="unexpected end of file") as a:
            list(streamed.iter_chunks())
        with reference_decoder(), pytest.raises(TraceFormatError) as b:
            list(streamed.iter_columnar())
        assert str(a.value) == str(b.value)

    def test_undefined_hint_id(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        (block,) = [offset for tag, offset in _record_offsets(data) if tag == 0x03]
        # tag, count, length, then the first record: flags, page 1, hint 1.
        assert data[block + 4 : block + 6] == b"\x01\x01"
        data[block + 5] = 0x7F
        path.write_bytes(bytes(data))
        _both_raise(path, "undefined hint set id 126")

    def test_end_count_mismatch(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        end_offset = struct.unpack("<Q", data[-16:-8])[0]
        data[end_offset + 1] = 0x07  # the sample has 6 requests
        path.write_bytes(bytes(data))
        _both_raise(path, "END declares 7 requests but 6 were decoded")

    def test_unknown_tag(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        (block,) = [offset for tag, offset in _record_offsets(data) if tag == 0x03]
        data[block] = 0x09
        path.write_bytes(bytes(data))
        _both_raise(path, "unknown record tag 0x09")

    def test_hint_ids_not_dense(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        hint_sets = [offset for tag, offset in _record_offsets(data) if tag == 0x02]
        assert data[hint_sets[1] + 1] == 0x01
        data[hint_sets[1] + 1] = 0x02  # the second hint set claims id 2
        path.write_bytes(bytes(data))
        _both_raise(path, "must be dense and ascending")


# --------------------------------------------------------- differential fuzz


def _fuzz_file(requests: list[IORequest]) -> bytes:
    """*requests* as a binary trace of several small blocks."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ctb"
        with mock.patch.object(binio, "BLOCK_REQUESTS", 16):
            with BinaryTraceWriter(path, name="fuzz") as writer:
                writer.write_all(requests)
        return path.read_bytes()


def _fuzz_files() -> dict[str, bytes]:
    hot = hint("db2", object_id=1)
    cold = hint("db2", object_id=2, request_type="replacement_write")
    return {
        "plain": _fuzz_file(
            [rd(page, hot) if page % 3 else wr(page * 131, cold) for page in range(40)]
        ),
        "client-ids": _fuzz_file(
            [
                IORequest(page, RequestKind.READ, hot, f"tenant-{page % 3}")
                if page % 2
                else wr(page, cold)
                for page in range(40)
            ]
        ),
        "wide-pages": _fuzz_file(
            [
                rd(2**56 + page, hot) if page % 2 else wr(2**63 - 1 - page, cold)
                for page in range(40)
            ]
        ),
    }


# Byte values that sit on the format's edges: small hint refs and counts
# (each file defines two hint sets, so 3 is the first undefined ref), and
# varint continuation and terminator extremes.
_EDGE_BYTES = [0x00, 0x01, 0x02, 0x03, 0x04, 0x7F, 0x80, 0x81, 0xFF]


def _fuzz_targets(data: bytes) -> tuple[list[int], list[int], list[int]]:
    """The positions a mutation may hit: the first four bytes of each
    record the walk reads after the META records (the tag and the id,
    count and length varints), BLOCK records first; the hint ref of each
    block record; and every byte of the block bodies."""
    records = _record_offsets(data)
    order = sorted((tag != 0x03, offset) for tag, offset in records if tag != 0x01)
    headers = [offset + k for _, offset in order for k in range(4)]
    hint_refs: list[int] = []
    bodies: list[int] = []
    for tag, offset in records:
        if tag == 0x03:
            _, pos = _varint_at(data, offset + 1)
            length, pos = _varint_at(data, pos)
            bodies += range(pos, pos + length)
            end = pos + length
            while pos < end:
                flags = data[pos]
                _, pos = _varint_at(data, pos + 1)  # the page
                hint_refs.append(pos)
                _, pos = _varint_at(data, pos)
                if flags & 0x02:  # an explicit client id
                    length, pos = _varint_at(data, pos)
                    pos += length
    return [h for h in headers if h < len(data) - 16], hint_refs, bodies


@functools.cache
def _fuzz_inputs() -> dict[str, tuple[bytes, tuple[list[int], list[int], list[int]]]]:
    """Each fuzz file and its mutation targets, built on first use."""
    return {name: (data, _fuzz_targets(data)) for name, data in _fuzz_files().items()}


@st.composite
def _mutated_files(draw) -> bytes:
    """A valid fuzz file with one to three of its bytes replaced."""
    inputs = _fuzz_inputs()
    valid, positions = inputs[draw(st.sampled_from(sorted(inputs)))]
    data = bytearray(valid)
    targets = st.one_of(*map(st.sampled_from, positions))
    for _ in range(draw(st.integers(1, 3))):
        position = draw(targets)
        data[position] = draw(st.one_of(st.sampled_from(_EDGE_BYTES), st.integers(0, 255)))
    return bytes(data)


def _decoded(path) -> list[IORequest] | str:
    """Every request ``StreamedTrace`` decodes from *path*, or the message of
    the TraceFormatError it raises."""
    try:
        return [r for chunk in StreamedTrace(path).iter_chunks() for r in chunk]
    except TraceFormatError as exc:
        return f"TraceFormatError: {exc}"


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(data=_mutated_files())
def test_mutated_files_decode_as_the_reference(data, tmp_path_factory):
    """Differential fuzz: a file with random bytes replaced decodes to the
    same requests, or fails with the same message, under the C decoder and
    under the reference, both driven by the same record walk."""
    path = tmp_path_factory.mktemp("fuzz") / "t.ctb"
    path.write_bytes(data)
    ours = _decoded(path)
    with reference_decoder():
        assert _decoded(path) == ours
