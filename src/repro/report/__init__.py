"""Reporting: ASCII figure rendering and CSV/JSON export of experiment
tables.

This package imports its modules eagerly, unlike the lazy packages
(:mod:`repro._lazy`): its export ``timeline`` shares the name of its
submodule, and importing ``repro.report.timeline`` would bind the module
over a lazy export of that name.
"""

from .ascii import bar_chart, line_chart, sparkline
from .export import rows_to_csv, rows_to_json, write_csv, write_json
from .timeline import allotment_strip, timeline

__all__ = [
    "sparkline",
    "line_chart",
    "bar_chart",
    "rows_to_csv",
    "rows_to_json",
    "write_csv",
    "write_json",
    "timeline",
    "allotment_strip",
]
