"""Small aggregation helpers for experiment result series."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["SeriesStats", "summarize"]


@dataclass(frozen=True, slots=True)
class SeriesStats:
    """Mean / spread summary of one measured series."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.std:.2g} (n={self.count})"


def summarize(values: Sequence[float]) -> SeriesStats:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty series")
    return SeriesStats(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        count=int(arr.size),
    )
