"""Alternative job characteristics (paper Section 9 future work).

"Beside the transition factor, alternative job characteristics such as the
frequency on the change of parallelism, or the variance, etc. can be
considered when analyzing adaptive schedulers."  This module computes those
characteristics from phased-job structure so the characteristics experiment
can correlate them with scheduler performance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.phased import PhasedJob

__all__ = ["ParallelismCharacteristics", "job_structure_characteristics"]


@dataclass(frozen=True, slots=True)
class ParallelismCharacteristics:
    """Summary statistics of a parallelism series."""

    transition_factor: float
    """max adjacent ratio (the paper's CL)."""

    change_frequency: float
    """Fraction of adjacent pairs whose parallelism differs by more than 5%
    — the 'frequency on the change of parallelism'."""

    variance: float
    """Variance of the series."""

    coefficient_of_variation: float
    """std / mean — scale-free variability."""

    mean: float


def _characterize(series: np.ndarray) -> ParallelismCharacteristics:
    if series.size == 0:
        raise ValueError("empty parallelism series")
    if np.any(series <= 0):
        raise ValueError("parallelism must be positive")
    if series.size == 1:
        c = 1.0
        freq = 0.0
    else:
        ratios = np.maximum(series[1:] / series[:-1], series[:-1] / series[1:])
        c = float(max(ratios.max(), series[0] / 1.0, 1.0 / series[0], 1.0))
        freq = float(np.mean(ratios > 1.05))
    mean = float(series.mean())
    var = float(series.var())
    return ParallelismCharacteristics(
        transition_factor=c,
        change_frequency=freq,
        variance=var,
        coefficient_of_variation=float(np.sqrt(var) / mean) if mean else 0.0,
        mean=mean,
    )


def job_structure_characteristics(job: PhasedJob) -> ParallelismCharacteristics:
    """Characteristics of the job's structural level-width profile, weighted
    by phase duration (levels)."""
    widths = np.array(job.parallelism_profile(), dtype=np.float64)
    return _characterize(widths)
