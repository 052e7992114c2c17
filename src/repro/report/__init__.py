"""Reporting: ASCII figure rendering and CSV export of experiment tables."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .ascii import line_chart, sparkline
    from .export import rows_to_csv, write_csv
    from .timeline import allotment_strip

__all__ = [
    "sparkline",
    "line_chart",
    "rows_to_csv",
    "write_csv",
    "allotment_strip",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ascii": ("line_chart", "sparkline"),
        ".export": ("rows_to_csv", "write_csv"),
        ".timeline": ("allotment_strip",),
    },
)
