"""Execution-path replay hooks for the golden-trace harness.

The multiprogrammed simulator has two loops (see :mod:`repro.sim.multi`):
the serial reference loop and the windowed loop on the batched kernel,
which always fast-forwards through provably repeating quanta.  A replay
pins one of them by name — ``serial`` (``batch="off"``) or ``superstep``
(``batch="auto"``) — so one golden fixture replayed on both proves the
windowed loop identical to the recorded reference run.  On ``superstep`` a
:class:`~repro.allocators.hierarchical.HierarchicalAllocator` set runs on
per-group windows, which require every job to be batchable and every
feedback policy to have an array form (to override
:meth:`~repro.core.feedback.FeedbackPolicy.next_request_batch`).  Any
other set the windowed loop cannot run (a non-batchable job, or a policy
with no array form) runs on the serial loop on the ``superstep`` path too,
and still must match.
"""

from __future__ import annotations

from typing import Sequence

from ..allocators.base import Allocator
from ..allocators.hierarchical import HierarchicalAllocator
from .jobs import JobSpec
from .multi import BatchChoice, MultiJobResult, simulate_job_set

__all__ = ["EXECUTION_PATHS", "PATH_MODES", "replay_path"]

#: path name -> the ``batch`` mode of :func:`simulate_job_set`.
PATH_MODES: dict[str, BatchChoice] = {"serial": "off", "superstep": "auto"}

#: The replayable execution paths, in reference-first order.
EXECUTION_PATHS: tuple[str, ...] = tuple(PATH_MODES)


def replay_path(
    specs: Sequence[JobSpec],
    allocator: Allocator,
    processors: int,
    *,
    quantum_length: int,
    max_quanta: int,
    path: str,
) -> MultiJobResult:
    """Run a job set to completion on one named execution path.

    ``path`` must be one of :data:`EXECUTION_PATHS`.
    """
    batch = PATH_MODES.get(path)
    if batch is None:
        raise ValueError(
            f"unknown execution path {path!r}; pick one of {EXECUTION_PATHS}"
        )
    per_group = batch == "auto" and isinstance(allocator, HierarchicalAllocator)
    return simulate_job_set(
        specs,
        allocator,
        processors,
        quantum_length=quantum_length,
        max_quanta=max_quanta,
        batch=batch,
        shards=2 if per_group else None,  # any N >= 2 picks per-group windows
    )
