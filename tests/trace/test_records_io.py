"""Tests for the trace container and its Figure 5 summaries."""

from __future__ import annotations

from repro.trace.records import Trace

from tests.conftest import hint, rd, wr


def sample_trace() -> Trace:
    hot = hint("db2", object_id=1, request_type="read")
    cold = hint("db2", object_id=2, request_type="replacement_write")
    requests = [rd(1, hot), rd(2, hot), wr(3, cold), rd(1, hot), wr(3, cold)]
    return Trace(name="sample", requests_list=requests, metadata={"seed": 7})


class TestTrace:
    def test_len_and_iteration(self):
        trace = sample_trace()
        assert len(trace) == 5
        assert [r.page for r in trace] == [1, 2, 3, 1, 3]

    def test_indexing(self):
        trace = sample_trace()
        assert trace[0].page == 1
        assert trace[-1].page == 3

    def test_summary_counts_match_figure5_columns(self):
        summary = sample_trace().summary()
        assert summary.requests == 5
        assert summary.reads == 3
        assert summary.writes == 2
        assert summary.distinct_pages == 3
        assert summary.distinct_hint_sets == 2

    def test_summary_as_dict(self):
        d = sample_trace().summary().as_dict()
        assert d["trace"] == "sample"
        assert d["distinct_hint_sets"] == 2

    def test_append_and_extend(self):
        trace = Trace(name="t")
        trace.append(rd(1))
        trace.extend([rd(2), wr(3)])
        assert len(trace) == 3

    def test_truncated(self):
        trace = sample_trace()
        short = trace.truncated(2)
        assert len(short) == 2
        assert len(trace) == 5
        assert short.metadata == trace.metadata

    def test_distinct_sets(self):
        trace = sample_trace()
        assert trace.distinct_pages() == {1, 2, 3}
        assert len(trace.distinct_hint_sets()) == 2
