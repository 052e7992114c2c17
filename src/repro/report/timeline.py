"""Allotment timeline rendering.

Draws a job's execution as a quantum-by-quantum strip: processor request,
allotment, and measured parallelism — the picture behind Figures 1 and 4,
for any trace.
"""

from __future__ import annotations

from ..core.types import JobTrace
from .ascii import sparkline

__all__ = ["allotment_strip"]


def allotment_strip(trace: JobTrace, *, max_quanta: int = 60) -> str:
    """One sparkline row each for request, allotment, and parallelism."""
    cols = trace.columns
    request, allotment, work, span = (
        getattr(cols, name)[:max_quanta].tolist()
        for name in ("request", "allotment", "work", "span")
    )
    if not request:
        raise ValueError("empty trace")
    rows = [
        ("request d(q)", request),
        ("allotment a(q)", [float(a) for a in allotment]),
        ("parallelism A(q)", [0.0 if tinf == 0 else t1 / tinf for t1, tinf in zip(work, span)]),
    ]
    label_w = max(len(name) for name, _ in rows)
    lines = []
    for name, series in rows:
        lines.append(
            f"{name:<{label_w}}  {sparkline(series)}"
            f"  [{min(series):.3g}, {max(series):.3g}]"
        )
    if len(trace) > max_quanta:
        lines.append(f"({len(trace) - max_quanta} more quanta not shown)")
    return "\n".join(lines)
