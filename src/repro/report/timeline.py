"""Allotment timeline rendering.

Draws a job's execution as a quantum-by-quantum strip: processor request,
allotment, and measured parallelism — the picture behind Figures 1 and 4,
for any trace.
"""

from __future__ import annotations

from ..core.types import JobTrace
from .ascii import sparkline

__all__ = ["timeline", "allotment_strip"]


def _head(trace: JobTrace, max_quanta: int) -> dict[str, list]:
    """The first ``max_quanta`` rows of each column, as python lists, plus
    the derived ``parallelism`` (``A(q)``) and ``waste`` columns."""
    cols = trace.columns
    head = {
        name: getattr(cols, name)[:max_quanta].tolist()
        for name in ("index", "request", "allotment", "work", "span", "steps")
    }
    if not head["index"]:
        raise ValueError("empty trace")
    head["parallelism"] = [
        0.0 if tinf == 0 else t1 / tinf for t1, tinf in zip(head["work"], head["span"])
    ]
    head["waste"] = [
        a * st - t1 for a, st, t1 in zip(head["allotment"], head["steps"], head["work"])
    ]
    return head


def allotment_strip(trace: JobTrace, *, max_quanta: int = 60) -> str:
    """One sparkline row each for request, allotment, and parallelism."""
    head = _head(trace, max_quanta)
    rows = [
        ("request d(q)", head["request"]),
        ("allotment a(q)", [float(a) for a in head["allotment"]]),
        ("parallelism A(q)", head["parallelism"]),
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


def timeline(trace: JobTrace, *, max_quanta: int = 30) -> str:
    """A per-quantum table with a proportional allotment bar — a compact
    Gantt-style view of how the scheduler tracked the job."""
    head = _head(trace, max_quanta)
    peak = max(max(head["allotment"]), 1)
    scale = min(1.0, 40.0 / peak)
    lines = [
        f"{'q':>4} {'d(q)':>8} {'a(q)':>5} {'A(q)':>8} {'waste':>8}  allotment"
    ]
    rows = zip(
        head["index"], head["request"], head["allotment"], head["parallelism"], head["waste"]
    )
    for q, d, a, par, waste in rows:
        bar = "█" * max(1, int(round(a * scale)))
        lines.append(f"{q:>4} {d:>8.2f} {a:>5} {par:>8.2f} {waste:>8}  {bar}")
    if len(trace) > max_quanta:
        lines.append(f"... ({len(trace) - max_quanta} more quanta)")
    return "\n".join(lines)
