"""Arrival processes — release times for the arbitrary-release experiments.

Theorem 5's makespan bound holds "for any set of jobs with arbitrary release
times"; the batched restriction applies only to the mean-response-time
bound.  These generators produce release schedules for the open-system
variants of the Figure 6 experiment.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["poisson_releases", "staggered_releases"]


def poisson_releases(
    rng: np.random.Generator, count: int, mean_interarrival: float
) -> list[int]:
    """Poisson process: exponential inter-arrival times, first job at 0."""
    if count < 1:
        raise ValueError("need at least one job")
    if not math.isfinite(mean_interarrival) or mean_interarrival <= 0:
        raise ValueError(
            f"mean inter-arrival must be a positive finite number, "
            f"got {mean_interarrival!r}"
        )
    gaps = rng.exponential(mean_interarrival, size=count - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return [int(round(t)) for t in times]


def staggered_releases(count: int, gap: int) -> list[int]:
    """Deterministic arithmetic arrivals: 0, gap, 2*gap, ..."""
    if count < 1:
        raise ValueError("need at least one job")
    if gap < 0:
        raise ValueError("gap must be non-negative")
    return [i * gap for i in range(count)]
