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
  counts-determined (:func:`~repro.sim.jobs.closed_form_phases` is
  ``None``: reference-engine dags, executor factories, strict-mode
  ``engine="auto"`` dags), every set holding a job whose feedback policy
  has no array form, and every set driven by an allocator with no array
  form.  One rule covers both interfaces: a class has an array form when
  it overrides :meth:`~repro.core.feedback.FeedbackPolicy.next_request_batch`
  or :meth:`~repro.allocators.base.Allocator.allocate_batch` (the base
  methods return ``None``; an override returns an array).  The clairvoyant
  :class:`~repro.core.reference.OracleFeedback` control has none: it
  calls back into a live executor;
- the *windowed loop* (:func:`repro.sim.sharded.simulate_windowed`) runs
  every other set on the multi-job batched kernel
  (:mod:`repro.sim.multi_batched`): one numpy step loop advances all jobs
  per quantum, in windows that end at admission and rebalancing barriers.
  Records are emitted *columnar* into a
  :class:`~repro.sim.superstep.QuantumLog` of compact rows (one per slot
  per repeat group), and the log is the run's result.  The set-level
  metrics, :func:`split_machines` and the giant artifact read
  :attr:`MultiJobResult.summaries`, sums over the compact rows weighted by
  their repeat counts.  The rows are expanded into the traces'
  :class:`~repro.core.columnar.TraceColumns` only when
  :attr:`MultiJobResult.traces` is first read, and no record object is
  built even then.  The serial loop builds its traces directly and sums
  the same summaries from them.

``shards=N`` (an int ``N >= 2``, hierarchical allocators only) splits a
:class:`~repro.allocators.hierarchical.HierarchicalAllocator` into
per-group windows, run one after another in this process as plain calls,
and raises ``ValueError`` for a set the windowed loop cannot run; without
it the windowed loop runs one machine-wide window.  ``N`` counts nothing:
every ``N >= 2`` picks the same per-group route.
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
arrival admission, or a change of some job's integer request.  After each
quantum it checks whether the next quanta repeat it: the feedback left
every integer request ``ceil(d)`` unchanged, every job's remaining segment
chunks sustain identical pure quanta (closed forms in
:mod:`repro.sim.superstep`), the allocator certifies its grants repeat
(:meth:`~repro.allocators.base.Allocator.allocation_fixed_point`), and
the feedback recurrences, iterated on the repeated measurements, keep
every integer request in place
(:meth:`~repro.core.feedback.FeedbackPolicy.advance_request_batch`).  The
real request need not be a fixed point: A-Control's request converges
geometrically (Theorem 1) and its ceiling settles long before its last
bit does.  When all checks hold, ``K`` quanta advance at once and land as
one repeat-group in the log, which repeats every column but the request
and takes each quantum's request from the recurrence's trajectory.  The
traces are byte-identical to executing those quanta one at a time,
because a superstep engages exactly when the per-quantum path would have
produced those ``K`` quanta anyway; the tests check this by patching
:func:`repro.sim.sharded._attempt_superstep` to refuse every attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal, Sequence

import numpy as np

from ..allocators.base import Allocator, validate_allocation
from ..allocators.hierarchical import HierarchicalAllocator
from ..allocators.machines import DisjointMachines
from ..core.columnar import TraceColumns
from ..core.feedback import FeedbackPolicy
from ..core.overhead import NO_OVERHEAD, ReallocationOverhead
from ..core.types import JobTrace, QuantumRecord, integer_request
from ..engine.base import JobExecutor
from . import sharded
from .jobs import JobSpec, closed_form_phases, make_executor
from .metrics import JobSummaries
from .sharded import Profile
from .superstep import QuantumLog
from .single import run_quantum_with_overhead

__all__ = ["MultiJobResult", "simulate_job_set", "split_machines"]

BatchChoice = Literal["auto", "off"]


class _Compact:
    """A windowed run's traces while their rows are still its log's: the
    finished jobs' empty traces, in finish order, until the first read
    through any result that shares this object expands the log into them."""

    __slots__ = ("log", "traces")

    def __init__(self, log: QuantumLog, traces: dict[int, JobTrace]) -> None:
        self.log: QuantumLog | None = log
        self.traces = traces

    def expand(self) -> dict[int, JobTrace]:
        if self.log is not None:
            self.log.build_traces(self.traces)
            self.log = None
        return self.traces


class _Traces:
    """The ``traces`` field of :class:`MultiJobResult`: set like a plain
    attribute, and read like one once a windowed run's log is expanded."""

    def __get__(self, result: "MultiJobResult | None", owner: type) -> dict[int, JobTrace]:
        if result is None:
            raise AttributeError("traces")  # the field has no default
        compact = result._compact
        if compact is not None:
            built = compact.expand()
            result._traces = {jid: built[jid] for jid in result._traces}
            result._compact = None
        return result._traces

    def __set__(self, result: "MultiJobResult", traces: dict[int, JobTrace]) -> None:
        result._traces = traces
        result._compact = None
        result._summaries = None


@dataclass
class MultiJobResult:
    """Traces and set-level metrics of one multiprogrammed run.

    A windowed run's result holds its quantum log instead of built traces:
    :attr:`summaries` and the metrics read the log's compact rows, and
    ``traces`` expands them on its first read.  Either way ``traces``,
    equality and every metric are those of the run's finished traces.
    """

    traces: dict[int, JobTrace] = _Traces()  # type: ignore[assignment]
    processors: int
    quantum_length: int
    quanta_elapsed: int = 0
    released: dict[int, int] = field(default_factory=dict)
    _traces: dict[int, JobTrace] = field(init=False, repr=False, compare=False)
    _compact: _Compact | None = field(init=False, repr=False, compare=False)
    _summaries: JobSummaries | None = field(init=False, repr=False, compare=False)

    @property
    def summaries(self) -> JobSummaries:
        """Per-job totals, in the traces' finish order.  A windowed run sums
        them from its log's compact rows while the traces are unexpanded;
        built traces are summed afresh on every read."""
        if self._summaries is not None:
            return self._summaries
        compact = self._compact
        if compact is None:
            return JobSummaries.of_traces(self._traces)
        log = compact.log
        self._summaries = (
            log.job_summaries(self._traces)
            if log is not None
            else JobSummaries.of_traces(self.traces)
        )
        return self._summaries

    @property
    def makespan(self) -> int:
        return self.summaries.makespan

    @property
    def mean_response_time(self) -> float:
        return self.summaries.mean_response_time

    @property
    def total_waste(self) -> int:
        return int(self.summaries.total_waste.sum())

    @property
    def total_work(self) -> int:
        return int(self.summaries.total_work.sum())


def _windowed_result(
    compact: _Compact,
    traces: dict[int, JobTrace],
    summaries: JobSummaries | None,
    **fields: Any,
) -> MultiJobResult:
    """A result of ``compact``'s run whose ``traces`` holds the empty traces
    of its jobs; ``summaries``, when given, are theirs."""
    result = MultiJobResult(traces=traces, **fields)
    result._compact = compact
    result._summaries = summaries
    return result


def split_machines(
    result: MultiJobResult, machines: DisjointMachines
) -> list[MultiJobResult]:
    """Cut a :class:`DisjointMachines` run into one result per machine, as
    if each machine's jobs had run alone on ``budgets[m]`` processors.

    Job ids stay as they were (machine ``m``'s run from
    ``machine_offset(m)``).  Traces and summaries keep the run's finish
    order, which the mean response time's float summation depends on.
    ``quanta_elapsed`` counts the distinct quanta the machine's jobs ran
    at: the quanta a lone run of the machine executes, which skips the
    boundaries where the machine had no job.  A windowed run's parts share
    its log: they read their summaries and quanta from its compact rows,
    and the first part whose ``traces`` is read expands it for them all.
    """
    compact = result._compact
    log = compact.log if compact is not None else None
    traces = result._traces if log is not None else result.traces
    ids = np.fromiter(traces, dtype=np.int64, count=len(traces))
    owner = machines.machine_of(ids)
    owner_of = dict(zip(ids.tolist(), owner.tolist()))
    released: list[dict[int, int]] = [{} for _ in machines.budgets]
    for jid, rel in result.released.items():
        released[owner_of[jid]][jid] = rel
    if log is not None:
        summaries = result.summaries
        quanta = log.quanta_per_owner(machines.machine_of, len(machines.budgets))
    parts = []
    for m, budget in enumerate(machines.budgets):
        rows = np.flatnonzero(owner == m)
        own = {jid: traces[jid] for jid in ids[rows].tolist()}
        fields: dict[str, Any] = dict(
            processors=budget,
            quantum_length=result.quantum_length,
            released=released[m],
        )
        if log is not None:
            parts.append(
                _windowed_result(
                    compact, own, summaries.take(rows), quanta_elapsed=int(quanta[m]), **fields
                )
            )
        else:
            starts = [t.columns.start_step for t in own.values()]
            quanta_m = np.unique(np.concatenate(starts)).size if starts else 0
            parts.append(MultiJobResult(traces=own, quanta_elapsed=quanta_m, **fields))
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
    A set runs on the serial reference loop when some job is not
    counts-determined, some job's feedback policy class does not override
    :meth:`~repro.core.feedback.FeedbackPolicy.next_request_batch`, or the
    allocator's class does not override
    :meth:`~repro.allocators.base.Allocator.allocate_batch`.
    ``shards`` needs a :class:`HierarchicalAllocator` and an int ``N >= 2``,
    picks per-group windows whatever ``N`` is, and raises ``ValueError``
    for a set that would run on the serial loop; it stays because the
    benchmark's ``giant`` workload passes ``shards=2``.  A
    :class:`DisjointMachines` set needs ``processors == sum(budgets)`` and
    every job id inside some machine's range;
    :func:`split_machines` cuts its result into one per machine.
    ``allocator`` must be fresh: a stateful allocator carries its state
    (DEQ's rotation, :class:`DisjointMachines`' per-machine counters,
    :class:`HierarchicalAllocator`'s rebalance clock) out of the run, and a
    second run with the same instance gives a different schedule.
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
        policy = type(spec.feedback)
        array_feedback = policy.next_request_batch is not FeedbackPolicy.next_request_batch
        profile = (
            closed_form_phases(spec.job, spec.discipline, strict=strict, engine=spec.engine)
            if array_feedback
            else None
        )
        if profile is None:
            if shards is not None:
                need = (
                    "counts-determined jobs"
                    if array_feedback
                    else f"feedback policies with an array form ({policy.__name__} has none)"
                )
                raise ValueError(
                    f"job {jid} is not batchable; per-group windows require {need} "
                    "(run with shards=None to use the serial reference loop)"
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

    fields: dict[str, Any] = dict(
        processors=processors,
        quantum_length=quantum_length,
        released={jid: rel for rel, jid, _ in pending},
    )
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
        return MultiJobResult(traces=done, quanta_elapsed=quanta, **fields)
    done, quanta, log = sharded.simulate_windowed(
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
    return _windowed_result(_Compact(log, done), done, None, quanta_elapsed=quanta, **fields)


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
