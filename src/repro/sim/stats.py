"""Bootstrap statistics for experiment summaries.

The paper reports point averages ("an average 20% improvement"); for a
reproduction it is worth knowing how tight those averages are at a given
sample size.  :func:`bootstrap_ci` resamples any per-job/per-set metric and
returns a percentile confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["ConfidenceInterval", "bootstrap_ci"]


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    point: float
    low: float
    high: float
    confidence: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low

    def __str__(self) -> str:
        return (
            f"{self.point:.4g} "
            f"[{self.low:.4g}, {self.high:.4g}] @ {self.confidence:.0%}"
        )


def bootstrap_ci(
    values: Sequence[float],
    *,
    statistic: Callable[[np.ndarray], float] | None = None,
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: np.random.Generator | None = None,
) -> ConfidenceInterval:
    """Percentile-bootstrap CI of ``statistic`` (default: the mean)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    if resamples < 1:
        raise ValueError("need at least one resample")
    stat = statistic or (lambda a: float(a.mean()))
    rng = rng or np.random.default_rng(0)
    point = float(stat(arr))
    if arr.size == 1:
        return ConfidenceInterval(point, point, point, confidence)
    idx = rng.integers(0, arr.size, size=(resamples, arr.size))
    stats = np.array([stat(arr[row]) for row in idx])
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(stats, [alpha, 1.0 - alpha])
    return ConfidenceInterval(point, float(low), float(high), confidence)
