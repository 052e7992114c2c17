"""Shared plumbing for the experiment drivers.

Every driver returns plain dataclasses of series/rows so the benchmark
harness, the CLI, and the examples can all render the same numbers.  The
text renderer prints the rows/series the paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from typing import Any, Sequence

import numpy as np

__all__ = [
    "ExperimentTable",
    "format_table",
    "format_series",
    "default_rng_seed",
]

#: Seed used by every experiment unless overridden — reproducibility first.
default_rng_seed = 20080414  # IPDPS 2008 conference date


@dataclass(frozen=True, slots=True)
class ExperimentTable:
    """A titled table of rows (dataclasses or mappings) with column order."""

    title: str
    columns: tuple[str, ...]
    rows: tuple[Any, ...]

    def cell(self, row: Any, column: str) -> Any:
        if is_dataclass(row):
            return getattr(row, column)
        return row[column]

    def to_records(self) -> list[dict[str, Any]]:
        return [{c: self.cell(r, c) for c in self.columns} for r in self.rows]


def _fmt(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (value != 0 and abs(value) < 1e-3):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(table: ExperimentTable) -> str:
    """Render an :class:`ExperimentTable` as aligned plain text."""
    header = list(table.columns)
    body = [[_fmt(table.cell(r, c)) for c in header] for r in table.rows]
    widths = [
        max(len(h), *(len(row[i]) for row in body)) if body else len(h)
        for i, h in enumerate(header)
    ]
    lines = [table.title, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, values: Sequence[float], *, per_line: int = 10) -> str:
    """Render a numeric series compactly (for request traces etc.)."""
    chunks: list[str] = [f"{name}:"]
    line: list[str] = []
    for v in values:
        line.append(_fmt(float(v)))
        if len(line) == per_line:
            chunks.append("  " + " ".join(line))
            line = []
    if line:
        chunks.append("  " + " ".join(line))
    return "\n".join(chunks)
