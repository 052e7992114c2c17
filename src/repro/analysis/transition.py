"""Transition-factor measurement (paper Section 5.2).

The transition factor ``CL >= 1`` of a job is the maximal ratio of average
parallelism between any two adjacent full quanta for quantum length ``L``
(with ``A(0) = 1``).  It is an intrinsic job characteristic for a given
``L`` and captures how hard the job is to schedule non-clairvoyantly.
"""

from __future__ import annotations

from typing import Iterable

from ..core.types import JobTrace, transition_factor_of_series

__all__ = [
    "measured_transition_factor",
    "transition_factor_of_series",
    "job_set_transition_factor",
]


def measured_transition_factor(trace: JobTrace) -> float:
    """``CL`` measured from one job's quantum trace."""
    return trace.measured_transition_factor()


def job_set_transition_factor(traces: Iterable[JobTrace]) -> float:
    """The maximum transition factor over a set of jobs — the ``CL`` that
    appears in Theorem 5's makespan/response-time bounds."""
    factors = [t.measured_transition_factor() for t in traces]
    if not factors:
        raise ValueError("no traces")
    return max(factors)
