"""Off-line hint analysis and experiment report formatting."""

from repro.analysis.hint_analysis import HintSetAnalysis, analyze_hint_sets, figure3_rows
from repro.analysis.reporting import rows_to_csv, rows_to_table

__all__ = [
    "HintSetAnalysis",
    "analyze_hint_sets",
    "figure3_rows",
    "rows_to_csv",
    "rows_to_table",
]
