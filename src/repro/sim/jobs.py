"""Job specifications: what the simulators accept as "a job".

Either job *description* (a :class:`~repro.engine.phased.PhasedJob`, an
explicit :class:`~repro.dag.graph.Dag`, or a zero-argument *executor
factory* for custom engines such as work stealing) can be handed to the
simulators; a fresh executor is created per run.  A ready-made
:class:`~repro.engine.base.JobExecutor` is also accepted for single runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

from ..core.feedback import FeedbackPolicy
from ..dag.graph import Dag
from ..engine.base import JobExecutor
from ..engine.batched import BatchedDagExecutor, supports_batched
from ..engine.explicit import Discipline, ExplicitExecutor
from ..engine.phased import PhasedExecutor, PhasedJob

__all__ = [
    "JobSpec",
    "closed_form_phases",
    "make_executor",
    "JobDescription",
    "ExecutorFactory",
    "EngineChoice",
]

ExecutorFactory = Callable[[], JobExecutor]
JobDescription = PhasedJob | Dag | JobExecutor | ExecutorFactory

EngineChoice = Literal["auto", "batched", "reference"]
"""Engine selection for explicit dags: ``"auto"`` picks the batched
level-major kernel whenever the dag's structure permits it (and falls back to
the reference engine otherwise), ``"batched"`` requires it (raising
:class:`~repro.engine.batched.UnsupportedDagStructure` when it does not
apply), and ``"reference"`` forces the step-accurate heap engine."""


def closed_form_phases(
    job: JobDescription,
    discipline: Discipline = "breadth-first",
    *,
    strict: bool = False,
    engine: EngineChoice = "auto",
) -> tuple[tuple[int, int], ...] | None:
    """The ``(width, levels)`` phases ``job`` runs as in closed form, or None.

    Phases are returned exactly when :func:`make_executor` builds a
    closed-form engine for ``job``: a :class:`PhasedJob` always (its own
    phases), and a level-major :class:`Dag` headed for
    :class:`BatchedDagExecutor` (its segments) — with ``engine="batched"``,
    or ``engine="auto"`` outside strict mode under breadth-first.  The
    multi-job kernel admits exactly these jobs.  A non-level-major dag with
    ``engine="batched"`` gives ``None``; :func:`make_executor` raises
    :class:`~repro.engine.batched.UnsupportedDagStructure` for it.
    """
    if isinstance(job, PhasedJob):
        return tuple((p.width, p.levels) for p in job.phases)
    if isinstance(job, Dag) and (
        (engine == "batched" and job.structure.level_major)
        or (engine == "auto" and not strict and supports_batched(job, discipline))
    ):
        return tuple(job.structure.segment_phases())
    return None


def make_executor(
    job: JobDescription,
    discipline: Discipline = "breadth-first",
    *,
    strict: bool = False,
    engine: EngineChoice = "auto",
) -> JobExecutor:
    """Create a fresh executor for a job description.

    Phased jobs always execute with B-Greedy's breadth-first wavefront (for
    which the closed form holds); explicit dags honor ``discipline`` and
    ``engine`` (see :data:`EngineChoice` — by default the batched level-major
    kernel is selected automatically for dags whose structure permits it); a
    zero-argument callable is treated as an executor factory (for custom
    engines such as :class:`~repro.stealing.executor.WorkStealingExecutor`);
    an executor instance is returned as-is (caller owns its freshness).

    ``strict=True`` enables the built-in engines' per-step invariant
    checking (:class:`~repro.verify.violations.InvariantError` on breach);
    with ``engine="auto"`` it also keeps explicit dags on the reference
    engine, whose strict mode re-validates every individual scheduling
    decision rather than per-quantum arithmetic.
    """
    if engine not in ("auto", "batched", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    if isinstance(job, PhasedJob):
        return PhasedExecutor(job, strict=strict)
    if isinstance(job, Dag):
        if engine == "batched" or closed_form_phases(
            job, discipline, strict=strict, engine=engine
        ):
            return BatchedDagExecutor(job, strict=strict)
        return ExplicitExecutor(job, discipline, strict=strict)
    if isinstance(job, JobExecutor):
        return job
    if callable(job):
        executor = job()
        if not isinstance(executor, JobExecutor):
            raise TypeError(
                f"executor factory returned {type(executor).__name__}, "
                "expected a JobExecutor"
            )
        return executor
    raise TypeError(f"not a job description: {job!r}")


@dataclass(slots=True)
class JobSpec:
    """One job in a multiprogrammed simulation.

    ``job`` must be re-instantiable — a :class:`PhasedJob`, a :class:`Dag`,
    or an executor *factory* — so the simulator can create fresh run state.
    """

    job: JobDescription
    feedback: FeedbackPolicy
    release_time: int = 0
    discipline: Discipline = "breadth-first"
    job_id: int | None = field(default=None)
    engine: EngineChoice = "auto"

    def __post_init__(self) -> None:
        if self.release_time < 0:
            raise ValueError("release time must be non-negative")
        if isinstance(self.job, JobExecutor):
            raise TypeError(
                "JobSpec needs a re-instantiable job description "
                "(PhasedJob, Dag, or an executor factory), not an executor"
            )
