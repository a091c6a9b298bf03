"""Tests for the off-line hint-set analysis (Section 3 / Figure 3)."""

from __future__ import annotations

import pytest

from repro.analysis.hint_analysis import analyze_hint_sets, figure3_rows
from repro.analysis.reporting import rows_to_csv, rows_to_table

from tests.conftest import hint, rd, wr


GOOD = hint("db2", table="stock", request_type="replacement_write")
BAD = hint("db2", table="orderline", request_type="read")


def small_trace():
    """GOOD-hinted requests are re-read quickly; BAD-hinted ones never are."""
    requests = []
    # Pages 1..5 written with GOOD, re-read two requests later.
    for page in range(1, 6):
        requests.append(wr(page, GOOD))
        requests.append(rd(100 + page, BAD))
        requests.append(rd(page, GOOD))
    # Pages 200.. read once with BAD, never again.
    for page in range(200, 210):
        requests.append(rd(page, BAD))
    return requests


class TestAnalyzeHintSets:
    def test_counts_requests_per_hint_set(self):
        analysis = analyze_hint_sets(small_trace())
        assert analysis[GOOD.key()].requests == 10
        assert analysis[BAD.key()].requests == 15

    def test_read_rereferences_and_distance(self):
        analysis = analyze_hint_sets(small_trace())
        good = analysis[GOOD.key()]
        # Every GOOD write is re-read exactly 2 requests later.
        assert good.read_rereferences == 5
        assert good.mean_distance == pytest.approx(2.0)

    def test_unrereferenced_hint_set_has_zero_priority(self):
        analysis = analyze_hint_sets(small_trace())
        assert analysis[BAD.key()].priority == 0.0
        assert analysis[BAD.key()].no_rereferences > 0

    def test_priority_ranks_good_above_bad(self):
        analysis = analyze_hint_sets(small_trace())
        assert analysis[GOOD.key()].priority > analysis[BAD.key()].priority

    def test_write_rereference_not_counted_as_benefit(self):
        requests = [rd(1, GOOD), wr(1, GOOD), rd(1, GOOD)]
        analysis = analyze_hint_sets(requests)
        good = analysis[GOOD.key()]
        # First request -> write re-ref; second -> read re-ref; third -> none.
        assert good.write_rereferences == 1
        assert good.read_rereferences == 1
        assert good.no_rereferences == 1

    def test_empty_trace(self):
        assert analyze_hint_sets([]) == {}


class TestFigure3Rows:
    def test_rows_sorted_by_priority(self):
        rows = figure3_rows(small_trace())
        priorities = [row["priority"] for row in rows]
        assert priorities == sorted(priorities, reverse=True)

    def test_zero_priority_rows_hidden_by_default(self):
        rows = figure3_rows(small_trace())
        assert all(row["priority"] > 0 for row in rows)

    def test_zero_priority_rows_included_on_request(self):
        rows = figure3_rows(small_trace(), include_zero_priority=True)
        assert any(row["priority"] == 0 for row in rows)

    def test_rows_carry_frequency(self):
        rows = figure3_rows(small_trace())
        assert rows[0]["frequency"] == 10


class TestReporting:
    def test_rows_to_table_contains_headers_and_values(self):
        table = rows_to_table([{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}])
        assert "a" in table and "b" in table
        assert "0.5" in table

    def test_rows_to_table_empty(self):
        assert rows_to_table([]) == "(no rows)"

    def test_rows_to_csv_round_trip(self, tmp_path):
        import csv

        path = rows_to_csv([{"a": 1, "b": "x"}], tmp_path / "out.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows == [{"a": "1", "b": "x"}]
