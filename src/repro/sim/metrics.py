"""Set-level performance metrics and the theoretical lower bounds the paper
normalizes against.

- Makespan lower bound: ``M* >= max(total work / P, max_j (release_j +
  span_j))`` — no schedule can beat the machine's aggregate throughput or any
  single job's critical path from its release.
- Mean response time lower bound for *batched* job sets (all released
  together): ``R* >= max(mean span, squashed-area bound)``.  The squashed-area
  bound runs jobs shortest-work-first on all ``P`` processors with perfect
  efficiency: with works sorted ascending ``w_(1) <= ... <= w_(n)``, job
  ``i``'s completion is at least ``(1/P) * sum_{k<=i} w_(k)``, giving
  ``R* >= (1/(n*P)) * sum_i (n - i + 1) * w_(i)``.

These are the standard bounds used by the paper's references [11, 12] and in
its Figure 6 normalization.

A run's set-level metrics read :class:`JobSummaries`: per job, the integer
sums over its quanta that the metrics and the giant artifact need.  They
are exact integer sums, so they come out the same whether summed over a
finished trace's rows or over a quantum log's repeat groups.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.types import JobTrace

__all__ = [
    "JobSummaries",
    "makespan",
    "mean_response_time",
    "makespan_lower_bound",
    "mean_response_time_lower_bound",
]


def makespan(traces: Iterable[JobTrace]) -> int:
    """Completion time of the last job (time 0 = first quantum boundary)."""
    traces = list(traces)
    if not traces:
        raise ValueError("no traces")
    return max(t.completion_time for t in traces)


def mean_response_time(traces: Iterable[JobTrace]) -> float:
    """Average of completion minus release over the job set."""
    times = [t.response_time for t in traces]
    if not times:
        raise ValueError("no traces")
    return float(np.mean(times))


@dataclass(frozen=True, slots=True, eq=False)
class JobSummaries:
    """Per-job totals of one multiprogrammed run, one int64 entry per job in
    the run's finish order (the order of its ``traces``).

    The order matters: :attr:`mean_response_time` averages in it, and its
    float sum is order-dependent.
    """

    job_id: np.ndarray
    release_time: np.ndarray
    records: np.ndarray
    """Quanta the job ran (``len(trace)``)."""
    running_time: np.ndarray
    total_work: np.ndarray
    total_waste: np.ndarray
    completion_time: np.ndarray

    @classmethod
    def of_traces(cls, traces: Mapping[int, JobTrace]) -> "JobSummaries":
        """The summaries of finished traces, keyed by job id, in their order."""
        rows = [
            (
                jid,
                t.release_time,
                len(t),
                t.running_time,
                t.total_work,
                t.total_waste,
                t.completion_time,
            )
            for jid, t in traces.items()
        ]
        columns = np.array(rows, dtype=np.int64).reshape(len(rows), 7).T
        return cls(*columns)

    def take(self, rows: np.ndarray) -> "JobSummaries":
        """The summaries of jobs ``rows`` (positions), in that order."""
        return JobSummaries(*(getattr(self, f.name)[rows] for f in fields(self)))

    @property
    def makespan(self) -> int:
        """:func:`makespan` of the summarized traces."""
        if not self.job_id.size:
            raise ValueError("no traces")
        return int(self.completion_time.max())

    @property
    def mean_response_time(self) -> float:
        """:func:`mean_response_time` of the summarized traces, bit for bit:
        the same int64 values averaged in the same order."""
        if not self.job_id.size:
            raise ValueError("no traces")
        return float(np.mean(self.completion_time - self.release_time))


def makespan_lower_bound(
    works: Sequence[int],
    spans: Sequence[int],
    releases: Sequence[int],
    processors: int,
) -> float:
    """``M* = max(sum(T1)/P, max(release + Tinf))``."""
    if not works or len(works) != len(spans) or len(works) != len(releases):
        raise ValueError("works, spans, releases must be equal-length and non-empty")
    if processors < 1:
        raise ValueError("need at least one processor")
    throughput = sum(works) / processors
    critical = max(r + s for r, s in zip(releases, spans))
    return max(throughput, float(critical))


def mean_response_time_lower_bound(
    works: Sequence[int],
    spans: Sequence[int],
    processors: int,
) -> float:
    """Batched mean-response-time lower bound ``R* = max(mean span,
    squashed-area / n)``."""
    if not works or len(works) != len(spans):
        raise ValueError("works and spans must be equal-length and non-empty")
    if processors < 1:
        raise ValueError("need at least one processor")
    n = len(works)
    mean_span = float(np.mean(spans))
    sorted_works = np.sort(np.asarray(works, dtype=np.float64))
    weights = np.arange(n, 0, -1, dtype=np.float64)  # n, n-1, ..., 1
    squashed = float(np.dot(weights, sorted_works)) / processors
    return max(mean_span, squashed / n)
