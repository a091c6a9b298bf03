"""Tests for the report formatting helpers (tables and CSV emission)."""

from __future__ import annotations

import csv

from repro.analysis.reporting import rows_to_csv, rows_to_table


HETEROGENEOUS_ROWS = [
    {"policy": "LRU", "read_hit_ratio": 0.25},
    {"policy": "LRU x4", "read_hit_ratio": 0.21, "hottest_shard_penalty": 1.4},
]


class TestRowsToTable:
    def test_columns_union_over_all_rows(self):
        # Columns that first appear in later rows must not be dropped.
        table = rows_to_table(HETEROGENEOUS_ROWS)
        header = table.splitlines()[0]
        assert "hottest_shard_penalty" in header
        assert "1.4" in table

    def test_union_preserves_first_seen_order(self):
        table = rows_to_table(
            [{"b": 1}, {"a": 2, "b": 3}, {"c": 4}]
        )
        header = table.splitlines()[0].split()
        assert header == ["b", "a", "c"]

    def test_missing_values_render_blank(self):
        table = rows_to_table(HETEROGENEOUS_ROWS)
        first_data_row = table.splitlines()[2]
        assert first_data_row.rstrip().endswith("0.25")

    def test_explicit_columns_select_and_order(self):
        table = rows_to_table(HETEROGENEOUS_ROWS, columns=["read_hit_ratio", "policy"])
        header = table.splitlines()[0].split()
        assert header == ["read_hit_ratio", "policy"]

    def test_empty_rows(self):
        assert rows_to_table([]) == "(no rows)"


class TestRowsToCsv:
    def read_back(self, path):
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))

    def test_columns_union_over_all_rows(self, tmp_path):
        path = rows_to_csv(HETEROGENEOUS_ROWS, tmp_path / "out.csv")
        parsed = self.read_back(path)
        assert parsed[0] == ["policy", "read_hit_ratio", "hottest_shard_penalty"]
        assert parsed[1] == ["LRU", "0.25", ""]
        assert parsed[2] == ["LRU x4", "0.21", "1.4"]

    def test_empty_rows_with_columns_still_write_header(self, tmp_path):
        path = rows_to_csv([], tmp_path / "empty.csv", columns=["series", "x", "y"])
        parsed = self.read_back(path)
        assert parsed == [["series", "x", "y"]]

    def test_empty_rows_without_columns_write_empty_file(self, tmp_path):
        path = rows_to_csv([], tmp_path / "nothing.csv")
        assert path.read_text() == ""

    def test_explicit_columns_project_rows(self, tmp_path):
        # Extra keys are projected away by the explicit column list without
        # relying on DictWriter's extrasaction to silently swallow them.
        path = rows_to_csv(HETEROGENEOUS_ROWS, tmp_path / "narrow.csv", columns=["policy"])
        parsed = self.read_back(path)
        assert parsed == [["policy"], ["LRU"], ["LRU x4"]]
