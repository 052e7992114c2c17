"""ASCII rendering of the paper's figures.

The benchmark harness and CLI regenerate figures as *data*; these helpers
draw them in a terminal so the shapes (who wins, where the crossover falls)
are visible without a plotting stack.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["sparkline", "line_chart"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line block-character sketch of a series."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("empty series")
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return _BLOCKS[0] * len(vals)
    scale = (len(_BLOCKS) - 1) / (hi - lo)
    return "".join(_BLOCKS[int(round((v - lo) * scale))] for v in vals)


def _scale(value: float, lo: float, hi: float, cells: int) -> int:
    if hi == lo:
        return 0
    frac = (value - lo) / (hi - lo)
    return min(cells - 1, max(0, int(round(frac * (cells - 1)))))


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 72,
    height: int = 16,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Plot one or more (x, y) series on a shared ASCII grid.

    Each series gets a marker character (``*``, ``o``, ``+``, ...); axis
    ranges cover all series.  Intended for the coarse shapes of Figures 5
    and 6, not pixel fidelity.
    """
    if not series:
        raise ValueError("no series to plot")
    markers = "*o+x#@%&"
    if len(series) > len(markers):
        raise ValueError(f"at most {len(markers)} series per chart")
    points = [(name, list(pts)) for name, pts in series.items()]
    all_pts = [p for _, pts in points for p in pts]
    if not all_pts:
        raise ValueError("series contain no points")
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    grid = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(points, markers):
        for x, y in pts:
            col = _scale(x, x_lo, x_hi, width)
            row = height - 1 - _scale(y, y_lo, y_hi, height)
            grid[row][col] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:10.3g} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_lo:10.3g} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + " └" + "─" * width)
    lines.append(f"{'':10}  {x_lo:<10.3g}{x_label:^{max(0, width - 20)}}{x_hi:>10.3g}")
    legend = "   ".join(
        f"{marker} {name}" for (name, _), marker in zip(points, markers)
    )
    lines.append(f"{'':12}{legend}   [y: {y_label}]")
    return "\n".join(lines)
