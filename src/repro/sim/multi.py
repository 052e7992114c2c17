"""Multiprogrammed two-level scheduling simulation.

A set of jobs space-shares ``P`` processors (paper Sections 6.3 and 7, second
simulation set).  Scheduling quanta are machine-wide and synchronized: at
every boundary ``t = 0, L, 2L, ...`` the allocator divides the processors
among the active jobs' requests, each job runs its quantum, and newly
released jobs join at the next boundary.

A job that completes mid-quantum releases its processors at its completion
step for accounting purposes (no further waste accrues), but they become
re-allocatable only at the next boundary — the conservative reading of the
paper's quantum-granularity reallocation.

Execution paths
---------------
A set runs on one of two loops, with bit-identical traces either way:

- the *serial reference loop* (one executor per job, one mapping
  ``allocate`` call per quantum) is the oracle.  It runs every set under
  ``batch="off"``, and every set holding a job that is not
  counts-determined (:func:`~repro.sim.multi_batched.segment_profile` is
  ``None``: reference-engine dags, executor factories, strict-mode
  ``engine="auto"`` dags) or driven by an allocator with no array-native
  ``allocate_batch``;
- the *windowed loop* (:func:`repro.sim.sharded.simulate_windowed`) runs
  every other set on the multi-job batched kernel
  (:mod:`repro.sim.multi_batched`): one numpy step loop advances all jobs
  per quantum, in windows that end at admission and rebalancing barriers.
  Records are emitted *columnar* into a
  :class:`~repro.sim.superstep.QuantumLog`, whose arrays become the
  finished traces' :class:`~repro.core.columnar.TraceColumns` without a
  record object ever being built.

``shards=N`` (an int ``N >= 2``, hierarchical allocators only) splits a
:class:`~repro.allocators.hierarchical.HierarchicalAllocator` into
per-group windows, run one after another in this process as plain calls,
and rejects a set the windowed loop cannot run; without it the windowed
loop runs one machine-wide window.  ``N`` counts nothing: every ``N >= 2``
picks the same per-group route.
Independent sets can share one run as the disjoint machines of a
:class:`~repro.allocators.machines.DisjointMachines` allocator; the
records' ``available`` field is then the job's own machine size
(:meth:`~repro.allocators.base.Allocator.machine_sizes`), so
:func:`split_machines` hands back each set's lone run.  The
kernel replays the same closed-form chunk sequence as the per-job engines
(see the kernel module docstring for the argument, and
``tests/test_sim_multi_batched.py`` for the cross-validation).

Supersteps
----------
The windowed loop fast-forwards between *events* — a job completing, an
arrival admission, or a feedback-driven request change.  After each
quantum it checks whether the next is a literal fixed point of it: the
feedback recurrences hold every request bit-identical
(:meth:`~repro.core.feedback.FeedbackPolicy.advance_request_batch`), the
allocator certifies its grants repeat
(:meth:`~repro.core.allocators.base.Allocator.allocation_fixed_point`), and
every job's remaining segment chunks sustain identical pure quanta (closed
forms in :mod:`repro.sim.superstep`).  When all hold, ``K`` quanta advance
at once and their ``K`` identical records land as one repeat-group in the
log.  The traces are byte-identical to executing those quanta one at a
time, because a superstep engages exactly when the per-quantum path would
have produced those ``K`` quanta anyway; the tests check this by patching
:func:`repro.sim.sharded._attempt_superstep` to refuse every attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from ..allocators.base import Allocator, validate_allocation
from ..allocators.hierarchical import HierarchicalAllocator
from ..allocators.machines import DisjointMachines
from ..core.columnar import TraceColumns
from ..core.overhead import NO_OVERHEAD, ReallocationOverhead
from ..core.types import JobTrace, QuantumRecord, integer_request
from ..engine.base import JobExecutor
from .jobs import JobSpec, make_executor
from .metrics import makespan, mean_response_time
from .multi_batched import segment_profile
from .sharded import Profile, simulate_windowed
from .single import run_quantum_with_overhead

__all__ = ["MultiJobResult", "simulate_job_set", "split_machines"]

BatchChoice = Literal["auto", "off"]


@dataclass(slots=True)
class MultiJobResult:
    """Traces and set-level metrics of one multiprogrammed run."""

    traces: dict[int, JobTrace]
    processors: int
    quantum_length: int
    quanta_elapsed: int = 0
    released: dict[int, int] = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        return makespan(self.traces.values())

    @property
    def mean_response_time(self) -> float:
        return mean_response_time(self.traces.values())

    @property
    def total_waste(self) -> int:
        return sum(t.total_waste for t in self.traces.values())

    @property
    def total_work(self) -> int:
        return sum(t.total_work for t in self.traces.values())


def split_machines(
    result: MultiJobResult, machines: DisjointMachines
) -> list[MultiJobResult]:
    """Cut a :class:`DisjointMachines` run into one result per machine, as
    if each machine's jobs had run alone on ``budgets[m]`` processors.

    Job ids stay as they were (machine ``m``'s run from
    ``machine_offset(m)``).  Traces keep the run's finish order, which the
    mean response time's float summation depends on.  ``quanta_elapsed``
    counts the distinct quantum boundaries the machine's jobs ran at: the
    quanta a lone run of the machine executes, which skips the boundaries
    where the machine had no job.
    """
    ids = list(result.traces)
    owner = dict(zip(ids, machines.machine_of(np.array(ids, dtype=np.int64)).tolist()))
    traces: list[dict[int, JobTrace]] = [{} for _ in machines.budgets]
    released: list[dict[int, int]] = [{} for _ in machines.budgets]
    for jid, trace in result.traces.items():
        traces[owner[jid]][jid] = trace
    for jid, rel in result.released.items():
        released[owner[jid]][jid] = rel
    parts = []
    for m, budget in enumerate(machines.budgets):
        starts = [t.columns.start_step for t in traces[m].values()]
        parts.append(
            MultiJobResult(
                traces=traces[m],
                processors=budget,
                quantum_length=result.quantum_length,
                quanta_elapsed=np.unique(np.concatenate(starts)).size if starts else 0,
                released=released[m],
            )
        )
    return parts


@dataclass(slots=True)
class _ActiveJob:
    spec: JobSpec
    executor: JobExecutor
    release_time: int
    columns: TraceColumns
    request: float
    machine: int
    """Processors of the machine the job runs on (a satisfied job's
    ``available``)."""
    next_q: int = 1


def simulate_job_set(
    specs: Sequence[JobSpec],
    allocator: Allocator,
    processors: int,
    *,
    quantum_length: int = 1000,
    max_quanta: int = 10_000_000,
    overhead: ReallocationOverhead = NO_OVERHEAD,
    strict: bool = False,
    batch: BatchChoice = "auto",
    shards: int | None = None,
) -> MultiJobResult:
    """Run a job set to completion under a multiprogrammed allocator.

    Job ids default to the spec's position in ``specs``; explicit
    ``JobSpec.job_id`` values must be unique.  ``strict=True`` enables the
    engines' per-step invariant checking for every job.  ``batch`` and
    ``shards`` are execution choices, not policy choices (see the module
    docstring for which loop runs a set); results do not depend on them.
    ``shards`` needs a :class:`HierarchicalAllocator` and an int ``N >= 2``,
    and picks per-group windows whatever ``N`` is; it stays because the
    benchmark's ``giant`` workload passes ``shards=2``.  A
    :class:`DisjointMachines` set needs ``processors == sum(budgets)`` and
    every job id inside some machine's range;
    :func:`split_machines` cuts its result into one per machine.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    if quantum_length < 1:
        raise ValueError("quantum length must be >= 1")
    if not specs:
        raise ValueError("job set is empty")
    if batch not in ("auto", "off"):
        raise ValueError(f"unknown batch mode {batch!r}; pick 'auto' or 'off'")
    if shards is not None:
        if isinstance(shards, bool) or not isinstance(shards, int):
            raise ValueError(f"unknown shards mode {shards!r}; pick an integer N >= 2")
        if shards < 2:
            raise ValueError(
                f"shard count must be >= 2, got {shards} "
                "(shards=None runs the machine-wide window)"
            )
        if not isinstance(allocator, HierarchicalAllocator):
            raise ValueError(
                "shards splits a HierarchicalAllocator into per-group windows; "
                f"{type(allocator).__name__} runs with shards=None"
            )
        if batch == "off":
            raise ValueError(
                "per-group windows run on the batched kernel; "
                "batch='off' requires shards=None"
            )
    array_native = type(allocator).allocate_batch is not Allocator.allocate_batch
    pending: list[tuple[int, int, JobSpec]] = []  # (release, id, spec)
    seen_ids: set[int] = set()
    profiles: dict[int, Profile] | None = (
        {} if batch == "auto" and array_native else None
    )
    for i, spec in enumerate(specs):
        jid = spec.job_id if spec.job_id is not None else i
        if jid in seen_ids:
            raise ValueError(f"duplicate job id {jid}")
        seen_ids.add(jid)
        pending.append((spec.release_time, jid, spec))
        if profiles is None:
            continue
        profile = segment_profile(spec, strict=strict)
        if profile is None:
            if shards is not None:
                raise ValueError(
                    f"job {jid} is not batchable; per-group windows require "
                    "counts-determined jobs (run with shards=None to use the "
                    "serial reference loop)"
                )
            profiles = None
        else:
            profiles[jid] = profile
    pending.sort(key=lambda item: (item[0], item[1]))
    if isinstance(allocator, DisjointMachines):
        if processors != allocator.total:
            raise ValueError(
                f"disjoint machines need processors = sum(budgets) = "
                f"{allocator.total}, got {processors}"
            )
        # Raises for the first job outside every machine's id range.
        allocator.machine_of(np.array(sorted(seen_ids), dtype=np.int64))

    if profiles is None:
        done, quanta = _simulate_serial(
            pending,
            allocator,
            processors,
            quantum_length=quantum_length,
            max_quanta=max_quanta,
            overhead=overhead,
            strict=strict,
        )
    else:
        done, quanta = simulate_windowed(
            pending,
            profiles,
            allocator,
            processors,
            quantum_length=quantum_length,
            max_quanta=max_quanta,
            overhead=overhead,
            strict=strict,
            per_group=shards is not None,
        )
    return MultiJobResult(
        traces=done,
        processors=processors,
        quantum_length=quantum_length,
        quanta_elapsed=quanta,
        released={jid: rel for rel, jid, _ in pending},
    )


def _simulate_serial(
    pending: Sequence[tuple[int, int, JobSpec]],
    allocator: Allocator,
    processors: int,
    *,
    quantum_length: int,
    max_quanta: int,
    overhead: ReallocationOverhead,
    strict: bool,
) -> tuple[dict[int, JobTrace], int]:
    """The serial reference loop: one executor per job and one mapping
    ``allocate`` call per quantum; returns the finished traces and the
    quanta elapsed."""
    active: dict[int, _ActiveJob] = {}
    done: dict[int, JobTrace] = {}
    t = 0
    quanta = 0
    cursor = 0  # next admission index into the sorted release list
    L = quantum_length

    while cursor < len(pending) or active:
        if quanta >= max_quanta:
            raise RuntimeError(f"job set did not finish within {max_quanta} quanta")
        # Admit jobs released at or before this boundary.
        while cursor < len(pending) and pending[cursor][0] <= t:
            rel, jid, spec = pending[cursor]
            cursor += 1
            active[jid] = _ActiveJob(
                spec=spec,
                executor=make_executor(
                    spec.job, spec.discipline, strict=strict, engine=spec.engine
                ),
                release_time=rel,
                columns=TraceColumns.empty(),
                request=spec.feedback.first_request(),
                machine=int(
                    allocator.machine_sizes(np.array([jid], dtype=np.int64), processors)[0]
                ),
            )
        if not active:
            # Fast-forward to the boundary at/after the next release.
            next_release = pending[cursor][0]
            t = max(t + L, ((next_release + L - 1) // L) * L)
            continue

        # One machine-wide allocation over every active job, in admission
        # order.
        requests = {jid: integer_request(job.request) for jid, job in active.items()}
        alloc = allocator.allocate(requests, processors)
        validate_allocation(requests, alloc, processors)

        finished: list[int] = []
        for jid, job in active.items():
            a = alloc[jid]
            prev_a = job.columns.last_allotment()
            ex = run_quantum_with_overhead(job.executor, a, L, prev_a, overhead)
            record = QuantumRecord(
                index=job.next_q,
                request=job.request,
                request_int=requests[jid],
                available=a if a < requests[jid] else job.machine,
                allotment=a,
                work=ex.work,
                span=ex.span,
                steps=ex.steps,
                quantum_length=L,
                start_step=t,
            )
            job.columns.append(record)
            job.next_q += 1
            if ex.finished:
                finished.append(jid)
            else:
                job.request = job.spec.feedback.next_request(record)
        # Finished traces land in admission order.
        for jid in finished:
            job = active.pop(jid)
            done[jid] = JobTrace(L, job.columns.freeze(), job.release_time, jid)
        t += L
        quanta += 1
    return done, quanta
