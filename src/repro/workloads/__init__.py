"""Workload generators: fork-join jobs, multiprogrammed job sets, and
parallelism profiles."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .arrivals import poisson_releases, staggered_releases
    from .forkjoin import (
        ForkJoinGenerator,
        constant_parallelism_job,
        fork_join_job,
        ramped_job,
        structural_transition_factor,
    )
    from .giant import GiantScenario, giant_scenario
    from .jobsets import JobSetGenerator, JobSetSample
    from .profiles import job_from_profile, profile_of_job, random_profile

__all__ = [
    "poisson_releases",
    "staggered_releases",
    "ForkJoinGenerator",
    "constant_parallelism_job",
    "fork_join_job",
    "ramped_job",
    "structural_transition_factor",
    "GiantScenario",
    "giant_scenario",
    "JobSetGenerator",
    "JobSetSample",
    "job_from_profile",
    "profile_of_job",
    "random_profile",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".arrivals": ("poisson_releases", "staggered_releases"),
        ".forkjoin": (
            "ForkJoinGenerator", "constant_parallelism_job", "fork_join_job", "ramped_job",
            "structural_transition_factor",
        ),
        ".giant": ("GiantScenario", "giant_scenario"),
        ".jobsets": ("JobSetGenerator", "JobSetSample"),
        ".profiles": ("job_from_profile", "profile_of_job", "random_profile"),
    },
)
