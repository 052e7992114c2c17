"""Two-level scheduling simulators and performance metrics."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .jobs import ExecutorFactory, JobDescription, JobSpec, make_executor
    from .metrics import (
        JobSummaries,
        makespan,
        makespan_lower_bound,
        mean_response_time,
        mean_response_time_lower_bound,
    )
    from .multi import MultiJobResult, simulate_job_set
    from .results import SeriesStats, summarize
    from .stats import ConfidenceInterval, bootstrap_ci
    from .single import simulate_job

__all__ = [
    "JobDescription",
    "ExecutorFactory",
    "JobSpec",
    "make_executor",
    "simulate_job",
    "simulate_job_set",
    "MultiJobResult",
    "JobSummaries",
    "makespan",
    "mean_response_time",
    "makespan_lower_bound",
    "mean_response_time_lower_bound",
    "SeriesStats",
    "summarize",
    "ConfidenceInterval",
    "bootstrap_ci",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".jobs": ("ExecutorFactory", "JobDescription", "JobSpec", "make_executor"),
        ".metrics": (
            "JobSummaries", "makespan", "makespan_lower_bound",
            "mean_response_time", "mean_response_time_lower_bound",
        ),
        ".multi": ("MultiJobResult", "simulate_job_set"),
        ".results": ("SeriesStats", "summarize"),
        ".stats": ("ConfidenceInterval", "bootstrap_ci"),
        ".single": ("simulate_job",),
    },
)
