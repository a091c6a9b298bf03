"""Tests for the binary trace format: round trips, streaming, error paths."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.hints import make_hint_set
from repro.simulation.request import IORequest, RequestKind
from repro.trace.binio import (
    BLOCK_REQUESTS,
    BinaryTraceWriter,
    StreamedTrace,
    write_trace_binary,
)
from repro.trace.io import TraceFormatError, read_trace, write_trace
from repro.trace.records import Trace

from tests.conftest import hint, rd, wr
from tests.strategies import traces as traces_strategy


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

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(trace=traces)
    def test_text_to_binary_to_memory(self, trace, tmp_path_factory):
        """text -> memory -> binary -> memory preserves the request stream."""
        tmp = tmp_path_factory.mktemp("conv")
        write_trace(trace, tmp / "t.trace")
        from_text = read_trace(tmp / "t.trace")
        write_trace_binary(from_text, tmp / "t.ctb")
        from_binary = StreamedTrace(tmp / "t.ctb").load()
        # The text format derives client ids from hint sets, so compare the
        # text-loaded trace (not the original) against its binary round trip.
        assert_traces_equal(from_binary, from_text)

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
        assert list(streamed.iter_requests()) == trace.requests()
        assert len(streamed) == len(trace)
        assert streamed.name == "sample"
        assert streamed.metadata["seed"] == 7

    def test_reiterable(self, tmp_path):
        path = tmp_path / "t.ctb"
        write_trace_binary(sample_trace(), path)
        streamed = StreamedTrace(path)
        assert list(streamed) == list(streamed)

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
            list(streamed.iter_requests())

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
            list(StreamedTrace(path).iter_requests())

    def test_end_count_mismatch(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        end_offset = struct.unpack("<Q", data[-16:-8])[0]
        assert data[end_offset] == 0x04
        data[end_offset + 1] = 0x05  # sample has 6 requests; claim 5
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="declares 5 requests"):
            list(StreamedTrace(path).iter_requests())

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


# ------------------------------------------------- columnar decode edge cases


def _finish_file(body: bytearray, count: int) -> bytes:
    """Append a well-formed END record + footer declaring *count* requests."""
    end_offset = len(body)
    body += bytes([0x04, count, 2]) + b"{}"
    body += struct.pack("<Q8s", end_offset, b"CLICEND\x00")
    return bytes(body)


class TestColumnarDecodeEdgeCases:
    """iter_columnar must agree with iter_chunks on the decoder's corners:
    empty blocks, single-request blocks, oversized varints, and garbled
    blocks (same TraceFormatError, same message)."""

    def test_empty_block_decodes_identically(self, tmp_path):
        # An empty BLOCK (count 0, length 0) is valid; the vectorised decoder
        # declines it (nothing to vectorise) and the fallback must produce
        # the same empty chunk the scalar path does.
        path = tmp_path / "empty.ctb"
        body = bytearray(b"CLICBT" + bytes([1]))
        body += bytes([0x03, 0x00, 0x00])
        path.write_bytes(_finish_file(body, count=0))

        streamed = StreamedTrace(path)
        scalar_chunks = list(streamed.iter_chunks())
        columnar_chunks = list(streamed.iter_columnar())
        assert scalar_chunks == [[]]
        assert len(columnar_chunks) == 1
        assert len(columnar_chunks[0]) == 0
        assert columnar_chunks[0].requests() == []

    def test_single_request_block_decodes_columnar(self, tmp_path):
        path = tmp_path / "one.ctb"
        with BinaryTraceWriter(path, name="one") as writer:
            writer.write(rd(5, hint("db2", object_id=9)))
        streamed = StreamedTrace(path)
        (chunk,) = streamed.iter_columnar()
        # The vectorised decoder handled it (a fallback chunk arrives with
        # its request list pre-memoised by from_requests).
        assert chunk._requests is None
        (scalar_chunk,) = streamed.iter_chunks()
        assert chunk.requests() == scalar_chunk
        assert chunk.seq_list() == [0]

    def test_oversized_varint_falls_back_to_scalar(self, tmp_path):
        # page = 2**60 needs a 9-byte varint: its value still fits an int64,
        # but the vectorised decoder's 8-byte (56-bit payload) lane limit
        # cannot prove that, so the block must take the scalar fallback and
        # decode to identical requests.
        from repro.trace.binio import _decode_block, _decode_block_columnar, _encode_varint

        big = 2**60
        record = bytes([0]) + _encode_varint(big) + _encode_varint(0)
        assert len(_encode_varint(big)) == 9
        assert _decode_block_columnar(record, 1, 0) is None
        (request,) = _decode_block(record, 1, {}, 0)
        assert request.page == big

        path = tmp_path / "big.ctb"
        with BinaryTraceWriter(path, name="big") as writer:
            writer.write(rd(big))
            writer.write(rd(1))
        streamed = StreamedTrace(path)
        (chunk,) = streamed.iter_columnar()
        assert chunk._requests is not None  # fallback path was taken
        (scalar_chunk,) = streamed.iter_chunks()
        assert chunk.requests() == scalar_chunk
        assert chunk.page.tolist() == [big, 1]

    def test_garbled_block_raises_identically_on_both_paths(self, tmp_path):
        # A BLOCK declaring one request with an empty body is garbled; the
        # columnar path must surface the exact scalar TraceFormatError.
        path = tmp_path / "garbled.ctb"
        body = bytearray(b"CLICBT" + bytes([1]))
        body += bytes([0x03, 0x01, 0x00])
        path.write_bytes(_finish_file(body, count=1))

        streamed = StreamedTrace(path)
        with pytest.raises(TraceFormatError) as scalar_err:
            list(streamed.iter_chunks())
        with pytest.raises(TraceFormatError) as columnar_err:
            list(streamed.iter_columnar())
        assert str(columnar_err.value) == str(scalar_err.value)
        assert "declared 1 requests" in str(scalar_err.value)

    def test_truncated_record_raises_identically_on_both_paths(self, tmp_path):
        # A record cut off inside its page varint: the clear-bit structure
        # check rejects it columnar-side, and the scalar decoder runs off
        # the end — both must raise the same error.
        path = tmp_path / "cut.ctb"
        body = bytearray(b"CLICBT" + bytes([1]))
        payload = bytes([0x00, 0x80])  # flags + dangling continuation byte
        body += bytes([0x03, 0x01, len(payload)]) + payload
        path.write_bytes(_finish_file(body, count=1))

        streamed = StreamedTrace(path)
        with pytest.raises(TraceFormatError) as scalar_err:
            list(streamed.iter_chunks())
        with pytest.raises(TraceFormatError) as columnar_err:
            list(streamed.iter_columnar())
        assert str(columnar_err.value) == str(scalar_err.value)
        assert "garbled block record" in str(scalar_err.value)


# ------------------------------------------------------ one record walker


def _agreeing_chunks(path) -> list[list[IORequest]]:
    """Both decoded views of *path*; asserts they hold the same requests."""
    streamed = StreamedTrace(path)
    chunks = list(streamed.iter_chunks())
    assert chunks == [chunk.requests() for chunk in streamed.iter_columnar()]
    return chunks


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
    """``iter_chunks`` is the request view of ``iter_columnar``'s chunks:
    the same requests, block for block, and the same TraceFormatError on
    every kind of corruption (a record that runs off its block is
    ``TestColumnarDecodeEdgeCases``' truncated record)."""

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
        chunks = _agreeing_chunks(self._write(tmp_path, requests))
        assert [r for chunk in chunks for r in chunk] == requests

    def test_mixed_blocks(self, tmp_path):
        requests = _mixed_requests()
        chunks = _agreeing_chunks(self._write(tmp_path, requests))
        assert [len(chunk) for chunk in chunks] == [BLOCK_REQUESTS, BLOCK_REQUESTS, 300]
        assert [r for chunk in chunks for r in chunk] == requests

    def test_pages_beyond_the_vector_lane(self, tmp_path):
        # Pages of 2**56 and more need 9-byte varints: the block takes the
        # scalar fallback.  Chunk columns are int64, so 2**63 - 1 is the
        # largest page either view decodes.
        requests = [rd(2**56), wr(2**56 + 1), rd(2**63 - 1), rd(3)]
        chunks = _agreeing_chunks(self._write(tmp_path, requests))
        assert chunks == [requests]

    def test_page_beyond_the_page_column(self, tmp_path):
        # The format's varints carry any page, a chunk's int64 column does
        # not: such a block fails loudly instead of overflowing numpy.
        path = self._write(tmp_path, [rd(1), rd(2**63)])
        self._both_raise(path, "page id beyond the int64 page column")

    def _both_raise(self, path, match: str) -> None:
        streamed = StreamedTrace(path)
        with pytest.raises(TraceFormatError, match=match) as scalar_err:
            list(streamed.iter_chunks())
        with pytest.raises(TraceFormatError) as columnar_err:
            list(streamed.iter_columnar())
        assert str(columnar_err.value) == str(scalar_err.value)

    def test_truncated_body(self, tmp_path):
        path = _write_sample(tmp_path)
        streamed = StreamedTrace(path)
        data = path.read_bytes()
        (block,) = [offset for tag, offset in _record_offsets(data) if tag == 0x03]
        path.write_bytes(data[: block + 6])  # cut inside the block body
        with pytest.raises(TraceFormatError, match="unexpected end of file") as a:
            list(streamed.iter_chunks())
        with pytest.raises(TraceFormatError) as b:
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
        self._both_raise(path, "undefined hint set id 126")

    def test_end_count_mismatch(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        end_offset = struct.unpack("<Q", data[-16:-8])[0]
        data[end_offset + 1] = 0x07  # the sample has 6 requests
        path.write_bytes(bytes(data))
        self._both_raise(path, "END declares 7 requests but 6 were decoded")

    def test_unknown_tag(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        (block,) = [offset for tag, offset in _record_offsets(data) if tag == 0x03]
        data[block] = 0x09
        path.write_bytes(bytes(data))
        self._both_raise(path, "unknown record tag 0x09")

    def test_hint_ids_not_dense(self, tmp_path):
        path = _write_sample(tmp_path)
        data = bytearray(path.read_bytes())
        hint_sets = [offset for tag, offset in _record_offsets(data) if tag == 0x02]
        assert data[hint_sets[1] + 1] == 0x01
        data[hint_sets[1] + 1] = 0x02  # the second hint set claims id 2
        path.write_bytes(bytes(data))
        self._both_raise(path, "must be dense and ascending")
