"""Tabular export of experiment results as CSV.

File writes go through :func:`repro.runtime.write_atomic`, so an exported
artifact is never observable half-written.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from pathlib import Path
from typing import Any, Sequence

from ..runtime import write_atomic

__all__ = ["rows_to_csv", "write_csv"]


def _nests(value: Any) -> bool:
    """Whether ``dataclasses.asdict`` would recurse into ``value``."""
    return isinstance(value, (list, tuple, dict)) or (
        dataclasses.is_dataclass(value) and not isinstance(value, type)
    )


def _record_of(row: Any) -> dict[str, Any]:
    if dataclasses.is_dataclass(row) and not isinstance(row, type):
        # A shallow read of the fields: ``asdict`` deep-copies each one,
        # which only a nested field needs.
        record = {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}
        return dataclasses.asdict(row) if any(map(_nests, record.values())) else record
    if isinstance(row, dict):
        return dict(row)
    raise TypeError(f"cannot export row of type {type(row).__name__}")


def rows_to_csv(rows: Sequence[Any]) -> str:
    """Render experiment rows (dataclasses or dicts) as CSV text."""
    if not rows:
        raise ValueError("no rows to export")
    records = [_record_of(r) for r in rows]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def write_csv(rows: Sequence[Any], path: str | Path) -> Path:
    return write_atomic(path, rows_to_csv(rows))
