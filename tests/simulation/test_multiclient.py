"""Tests for multi-client interleaving and capacity partitioning (Section 6.4)."""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hints import EMPTY_HINT_SET
from repro.simulation.multiclient import (
    InterleavedSource,
    interleave_round_robin,
    partition_capacity,
)
from repro.simulation.request import IORequest, RequestKind
from repro.trace import binio
from repro.trace.cache import TraceSpec
from repro.trace.columnar import ColumnarChunk, ColumnarSource

from tests.conftest import hint, rd, stream_requests
from tests.strategies import rich_io_requests


def client_trace(client_id: str, pages: list[int]):
    hs = hint(client_id, table="t")
    return [rd(page, hs) for page in pages]


def oracle_round_robin(traces: list[list[IORequest]]) -> list[IORequest]:
    """The object-path round-robin the columnar interleaver replaced."""
    if not traces:
        return []
    page_stride = max(request.page for trace in traces for request in trace) + 1
    length = min(len(trace) for trace in traces)
    interleaved: list[IORequest] = []
    for position in range(length):
        for index, trace in enumerate(traces):
            request = trace[position]
            interleaved.append(
                IORequest(
                    page=request.page + index * page_stride,
                    kind=request.kind,
                    hints=request.hints,
                    client_id=request.client_id,
                )
            )
    return interleaved


class TestInterleaving:
    def test_round_robin_order(self):
        a = client_trace("a", [1, 2])
        b = client_trace("b", [7, 8])
        combined = interleave_round_robin([a, b])
        clients = [request.client_id for request in stream_requests(combined)]
        assert clients == ["a", "b", "a", "b"]

    def test_truncation_to_shortest_trace(self):
        a = client_trace("a", [1, 2, 3, 4, 5])
        b = client_trace("b", [7])
        combined = interleave_round_robin([a, b])
        # One request per client per round, one round only.
        assert len(combined) == 2

    def test_page_ids_are_disjoint_across_clients(self):
        a = client_trace("a", [1, 2, 3])
        b = client_trace("b", [1, 2, 3])     # same raw page ids
        combined = stream_requests(interleave_round_robin([a, b]))
        pages_a = {r.page for r in combined if r.client_id == "a"}
        pages_b = {r.page for r in combined if r.client_id == "b"}
        assert pages_a.isdisjoint(pages_b)

    def test_stride_is_the_largest_page_plus_one(self):
        a = client_trace("a", [1])
        b = client_trace("b", [1, 9])
        combined = interleave_round_robin([a, b])
        assert combined.page_stride == 10
        assert {r.page for r in stream_requests(combined)} == {1, 11}

    def test_hints_and_kind_preserved(self):
        hs = hint("a", table="stock")
        trace = [rd(1, hs)]
        combined = stream_requests(interleave_round_robin([trace, client_trace("b", [5])]))
        assert combined[0].hints == hs
        assert combined[0].kind is RequestKind.READ

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            interleave_round_robin([client_trace("a", [1]), []])

    def test_no_traces_returns_empty(self):
        assert stream_requests(interleave_round_robin([])) == []


#: Small real traces, generated once into the session's trace cache.
SPECS = (
    TraceSpec("DB2_C60", seed=3, target_requests=300, client_id="client-c60"),
    TraceSpec("DB2_H400", seed=3, target_requests=200, client_id="client-h400"),
    TraceSpec("MY_H65", seed=3, target_requests=250),
)

def _streamed(path: Path, requests: list[IORequest], block: int) -> binio.StreamedTrace:
    """*requests* written to a binary trace with *block* requests per BLOCK."""
    with mock.patch.object(binio, "BLOCK_REQUESTS", block):
        with binio.BinaryTraceWriter(path) as writer:
            writer.write_all(requests)
    return binio.StreamedTrace(path)


def _client_inputs():
    """One client: ``("list", requests)``, ``("streamed", (requests, block))``
    for a binary trace written with *block* requests per BLOCK (so a dozen
    requests span several blocks, the hint table grows between them, and
    clients' block boundaries fall out of step), or ``("spec", spec)`` for a
    real trace."""
    requests = st.lists(rich_io_requests(), min_size=1, max_size=14)
    return st.one_of(
        st.tuples(st.just("list"), requests),
        st.tuples(st.just("streamed"), st.tuples(requests, st.integers(1, 5))),
        st.tuples(st.just("spec"), st.sampled_from(SPECS)),
    )


@pytest.mark.property
class TestInterleavedSourceProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(clients=st.lists(_client_inputs(), min_size=1, max_size=4))
    def test_equals_the_object_round_robin(self, clients):
        with tempfile.TemporaryDirectory() as tmp:
            sources: list = []
            oracle_inputs: list[list[IORequest]] = []
            for index, (kind, payload) in enumerate(clients):
                if kind == "spec":
                    sources.append(payload)
                    oracle_inputs.append(payload.load().requests())
                elif kind == "streamed":
                    streamed = _streamed(Path(tmp) / f"client-{index}.bin", *payload)
                    sources.append(streamed)
                    # The file's own decode: its dictionary may fold hint
                    # sets that compare equal (True == 1).
                    oracle_inputs.append(stream_requests(streamed))
                else:
                    sources.append(payload)
                    oracle_inputs.append(payload)

            source = interleave_round_robin(sources)
            oracle = oracle_round_robin(oracle_inputs)

            assert len(source) == len(oracle)
            assert stream_requests(source) == oracle

            chunks = list(source.iter_columnar())
            expected = ColumnarChunk.from_requests(oracle)
            for chunk in chunks:
                assert chunk.hint_sets[0] is EMPTY_HINT_SET
            columns = {
                name: np.concatenate([getattr(chunk, name) for chunk in chunks])
                for name in ("page", "write", "hint_id", "seq")
            }
            assert columns["page"].tolist() == expected.page.tolist()
            assert columns["write"].tolist() == expected.write.tolist()
            assert columns["seq"].tolist() == list(range(len(oracle)))
            # Hint id 0 is exactly the requests without hints.
            assert (columns["hint_id"] == 0).tolist() == (expected.hint_id == 0).tolist()
            assert [c.hint_sets[h] for c in chunks for h in c.hint_id.tolist()] == [
                expected.hint_sets[h] for h in expected.hint_id.tolist()
            ]
            assert [c.clients[i] for c in chunks for i in c.client_idx.tolist()] == [
                expected.clients[i] for i in expected.client_idx.tolist()
            ]


class TestInterleavedSource:
    def test_equal_inputs_give_equal_hashable_picklable_sources(self):
        first = interleave_round_robin(list(SPECS[:2]))
        second = interleave_round_robin(list(SPECS[:2]))
        assert isinstance(first, InterleavedSource)
        assert first == second and hash(first) == hash(second)
        assert pickle.loads(pickle.dumps(first)) == first
        assert interleave_round_robin(list(SPECS[1::-1])) != first

    def test_lists_are_lifted_once_into_chunks(self):
        source = interleave_round_robin([client_trace("a", [1, 2, 3]), SPECS[0]])
        assert isinstance(source.sources[0], ColumnarSource)
        assert source.sources[1] is SPECS[0]

    def test_lifted_list_clients_pickle(self):
        """Workers receive list clients as their lifted chunks."""
        source = interleave_round_robin([client_trace("a", [1, 2, 3]), client_trace("b", [4, 5])])
        copy = pickle.loads(pickle.dumps(source))
        assert stream_requests(copy) == stream_requests(source)

    def test_two_passes_lift_each_list_client_once(self, lifted):
        traces = [client_trace("a", list(range(5_000))), client_trace("b", list(range(6_000)))]
        source = interleave_round_robin(traces)
        first = stream_requests(source)
        assert stream_requests(source) == first == oracle_round_robin(traces)
        assert sum(lifted) == 11_000

    def test_ensure_delegates_to_the_inputs(self):
        calls = []

        class Spy:
            def __init__(self, requests):
                self._chunk = ColumnarChunk.from_requests(requests)

            def iter_columnar(self):
                yield self._chunk

            def ensure(self):
                calls.append(self)

        spies = [Spy(client_trace("a", [1])), Spy(client_trace("b", [2]))]
        interleave_round_robin(spies).ensure()
        assert calls == spies

    def test_clients_whose_blocks_fall_out_of_step(self, tmp_path):
        """A chunk ends wherever any client's block ends, mid-block for the
        others."""
        traces = [client_trace("a", list(range(7))), client_trace("b", list(range(8)))]
        sources = [
            _streamed(tmp_path / "a.bin", traces[0], 2),
            _streamed(tmp_path / "b.bin", traces[1], 3),
        ]
        source = interleave_round_robin(sources)
        assert [len(chunk) for chunk in source.iter_columnar()] == [4, 2, 2, 4, 2]
        assert stream_requests(source) == oracle_round_robin(traces)

    def test_a_client_that_shrank_since_interleaving_is_an_error(self):
        blocks = [client_trace("a", [1, 2]), client_trace("a", [3])]

        class Shrinking:
            def iter_columnar(self):
                for block in blocks:
                    yield ColumnarChunk.from_requests(block)

        source = interleave_round_robin([Shrinking(), client_trace("b", [4, 5, 6])])
        assert source.rounds == 3
        blocks.pop()
        with pytest.raises(ValueError, match="ended before 3 requests"):
            list(source.iter_columnar())


class TestPartitionCapacity:
    def test_even_split(self):
        assert partition_capacity(180, 3) == [60, 60, 60]

    def test_remainder_distributed(self):
        assert partition_capacity(10, 3) == [4, 3, 3]

    def test_sum_preserved(self):
        parts = partition_capacity(101, 4)
        assert sum(parts) == 101

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_capacity(10, 0)
        with pytest.raises(ValueError):
            partition_capacity(2, 3)
