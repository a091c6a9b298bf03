"""Report formatting: text tables and CSV emission for experiment results.

Every experiment in :mod:`repro.experiments` produces either a
:class:`~repro.simulation.metrics.SweepResult` or a list of row dicts; this
module renders them the way the paper's tables/figures report them and writes
optional CSV files so the series can be re-plotted externally.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

from repro.simulation.metrics import format_table

__all__ = ["rows_to_table", "rows_to_csv"]


def _union_columns(rows: Sequence[Mapping]) -> list[str]:
    """Column list covering *every* row, in first-seen order.

    Heterogeneous row lists are normal (e.g. sharded results carry columns
    that unified results lack); deriving columns from ``rows[0]`` alone
    would silently drop whatever first appears in a later row.
    """
    columns: list[str] = []
    seen: set[str] = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    return columns


def rows_to_table(rows: Sequence[Mapping], columns: Sequence[str] | None = None) -> str:
    """Render a list of row dicts as a fixed-width text table.

    ``columns`` selects/orders the columns explicitly; by default the
    columns are the first-seen-order union over **all** rows, so columns
    that only some rows carry still show up (blank where absent).
    """
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else _union_columns(rows)
    body = []
    for row in rows:
        rendered = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                rendered.append(f"{value:.4g}")
            else:
                rendered.append(str(value))
        body.append(rendered)
    return format_table(columns, body)


def rows_to_csv(rows: Sequence[Mapping], path: str | Path, columns: Sequence[str] | None = None) -> Path:
    """Write rows to a CSV file and return the path.

    Columns default to the first-seen-order union over all rows (never just
    ``rows[0]``); rows are projected onto the column list here, with missing
    values written as empty cells — nothing is silently dropped the way a
    ``DictWriter(extrasaction="ignore")`` would.  With no rows but explicit
    ``columns``, the header row is still written so downstream plotting
    tools always get a parseable CSV; only an empty call (no rows, no
    columns) produces an empty file.
    """
    path = Path(path)
    columns = list(columns) if columns is not None else _union_columns(rows)
    with path.open("w", newline="", encoding="utf-8") as handle:
        if not columns:
            return path
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({column: row.get(column, "") for column in columns})
    return path
