"""Execution-path replay hooks for the golden-trace harness.

The multiprogrammed simulator has two loops (see :mod:`repro.sim.multi`):
the serial reference loop and the windowed loop on the batched kernel.  A
replay pins one of four named paths through them — the serial loop, the
windowed loop with supersteps off, with supersteps on, and with per-group
windows dispatched to two shard workers — passing ``batch``, ``superstep``
and ``shards`` explicitly, so a replay can never be perturbed by the
ambient :data:`~repro.sim.multi.SUPERSTEP_ENV_VAR` override.  One golden
fixture replayed through all four paths therefore proves four-way identity
against the recorded reference run.
"""

from __future__ import annotations

from typing import Sequence

from ..allocators.base import Allocator
from .jobs import JobSpec
from .multi import BatchChoice, MultiJobResult, SuperstepChoice, simulate_job_set

__all__ = ["EXECUTION_PATHS", "PATH_MODES", "replay_path"]

#: The replayable execution paths, in reference-first order.
EXECUTION_PATHS: tuple[str, ...] = ("serial", "batched", "superstep", "sharded")

#: path name -> ``(batch, superstep, shards)`` modes of
#: :func:`simulate_job_set`.  The sharded path pins two shards — enough to
#: exercise the window barriers and the pooled worker dispatch without
#: making fixture replay fork-heavy.
PATH_MODES: dict[str, tuple[BatchChoice, SuperstepChoice, int | None]] = {
    "serial": ("off", "off", None),
    "batched": ("auto", "off", None),
    "superstep": ("auto", "auto", None),
    "sharded": ("auto", "auto", 2),
}


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

    ``path`` must be one of :data:`EXECUTION_PATHS`; the batch backend, the
    superstep mode, and the shard count are all passed explicitly so the
    environment cannot change what a fixture replay executes.
    """
    modes = PATH_MODES.get(path)
    if modes is None:
        raise ValueError(
            f"unknown execution path {path!r}; pick one of {EXECUTION_PATHS}"
        )
    batch, superstep, shards = modes
    return simulate_job_set(
        specs,
        allocator,
        processors,
        quantum_length=quantum_length,
        max_quanta=max_quanta,
        batch=batch,
        superstep=superstep,
        shards=shards,
    )
