"""Lifting request lists into columnar chunks."""

from __future__ import annotations

import pickle

import pytest

from repro.core.hints import EMPTY_HINT_SET, HintSet, make_hint_set
from repro.simulation.request import read_request, write_request
from repro.trace.columnar import ColumnarChunk, ColumnarSource, as_columnar
from repro.trace.records import Trace


class TestFromRequests:
    def test_equal_identity_hint_sets_share_the_first_objects_id(self):
        first = make_hint_set("a", object_id="x")
        twin = make_hint_set("a", object_id="x")
        other = make_hint_set("b", object_id="x")
        assert first is not twin and first.identity() == twin.identity()
        chunk = ColumnarChunk.from_requests(
            [
                read_request(1, first, "a"),
                write_request(2, twin, "a"),
                read_request(3, other, "b"),
                read_request(4, twin, "a"),
            ]
        )
        assert chunk.hint_id.tolist() == [1, 1, 2, 1]
        assert chunk.hint_sets[1] is first
        assert chunk.hint_sets[2] is other

    def test_columns_and_tables(self):
        empty_twin = HintSet("", (), ())
        hinted = make_hint_set("b", t="y")
        requests = [
            read_request(7, EMPTY_HINT_SET, "b"),
            write_request(8, hinted, "a"),
            read_request(9, empty_twin, "b"),
            write_request(7, hinted, "c"),
        ]
        chunk = ColumnarChunk.from_requests(requests, start_seq=40)
        assert chunk.page.tolist() == [7, 8, 9, 7]
        assert chunk.write.tolist() == [False, True, False, True]
        assert chunk.hint_id.tolist() == [0, 1, 0, 1]
        assert chunk.hint_sets == (EMPTY_HINT_SET, hinted)
        assert chunk.client_idx.tolist() == [0, 1, 0, 2]
        assert chunk.clients == ("b", "a", "c")
        assert chunk.seq.tolist() == [40, 41, 42, 43]
        chunk._requests = None  # rebuild from the columns
        assert chunk.requests() == requests
        assert chunk.requests() is chunk.requests()  # built once, then memoised

    def test_empty_list(self):
        chunk = ColumnarChunk.from_requests([], start_seq=5)
        assert len(chunk) == 0
        assert chunk.hint_sets == (EMPTY_HINT_SET,)
        assert chunk.clients == ()


REQUESTS = [
    read_request(page, make_hint_set("a", obj=page % 2), "a") for page in range(7)
]


class TestAsColumnar:
    def test_a_columnar_stream_passes_through(self):
        source = ColumnarSource(REQUESTS)

        class Stream:
            def iter_columnar(self):
                return iter(())

        stream = Stream()
        assert as_columnar(source) is source
        assert as_columnar(stream) is stream

    @pytest.mark.parametrize(
        "make",
        [list, tuple, iter, lambda requests: Trace("t", list(requests))],
        ids=["list", "tuple", "generator", "trace"],
    )
    def test_requests_are_lifted_once_into_numbered_chunks(self, make):
        source = as_columnar(make(REQUESTS), chunk_requests=3)
        chunks = list(source.iter_columnar())
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]
        assert [chunk.seq.tolist() for chunk in chunks] == [[0, 1, 2], [3, 4, 5], [6]]
        assert [r for chunk in chunks for r in chunk.requests()] == REQUESTS
        assert len(source) == len(REQUESTS)
        # A second pass yields the very same chunks: nothing is lifted again.
        assert all(a is b for a, b in zip(source.iter_columnar(), chunks))

    def test_a_lifted_source_pickles_with_its_chunks(self):
        source = as_columnar(REQUESTS, chunk_requests=3)
        copy = pickle.loads(pickle.dumps(source))
        assert [chunk.seq.tolist() for chunk in copy.iter_columnar()] == [
            chunk.seq.tolist() for chunk in source.iter_columnar()
        ]
        assert [r for chunk in copy.iter_columnar() for r in chunk.requests()] == REQUESTS

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_requests"):
            as_columnar(REQUESTS, chunk_requests=0)
