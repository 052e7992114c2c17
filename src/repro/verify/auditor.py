"""Invariant auditor: replay recorded traces against the paper's model.

The theorems of the paper hold only under a precise set of mechanical
invariants — conservative allocation, greedy non-idling, exact ``A(q)``
accounting, DAG precedence, the A-Control recurrence, fair non-reserving
multiprogrammed allocation.  This module checks each of them against a
recorded :class:`~repro.core.types.JobTrace` (or a whole
:class:`~repro.sim.multi.MultiJobResult`, or a step-level dag schedule) and
reports structured :class:`~repro.verify.violations.Violation`\\ s instead of
asserting, so a single audit surfaces *every* breach at once.

Mapping of checks to the paper (see docs/ARCHITECTURE.md for the narrative):

==============================  =============================================
check / violation code          paper anchor
==============================  =============================================
allotment-exceeds-*             conservative allocator, Section 2
request-not-ceil                integer requests, Section 2 (Figure 3 loop)
idle-with-ready-tasks           greedy scheduling, Definition of B-Greedy
work-exceeds-capacity           ``T1(q) <= a(q) * L`` (Section 5.1)
span-exceeds-steps              ``beta(q) <= 1`` for breadth-first (5.1)
work/span-conservation          ``sum T1(q) = T1``, ``sum Tinf(q) >= Tinf``
                                (exact for B-Greedy, Section 2)
acontrol-recurrence             Equation 3 / Theorem 1
theorem3-time-bound             Theorem 3
theorem4-waste-bound            Theorem 4
capacity/deq-unfair/reservation fair + non-reserving allocator, 5.1 & 6.3
precedence / incomplete-dag     dag model, Section 2
not-lowest-level-first          B-Greedy's lowest-level-first rule
==============================  =============================================
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..analysis.bounds import theorem3_time_bound, theorem4_waste_bound
from ..core.types import JobTrace, integer_request
from ..dag.graph import Dag
from ..sim.multi import MultiJobResult
from . import violations as V
from .violations import AuditReport, Violation

__all__ = [
    "audit_trace",
    "audit_multi_result",
    "audit_dag_schedule",
    "TraceExpectations",
]


class TraceExpectations:
    """Ground truth about a job that a trace can be audited against.

    All fields are optional; checks needing an absent field are skipped and
    left out of :attr:`AuditReport.checks`.
    """

    __slots__ = (
        "total_work",
        "total_span",
        "convergence_rate",
        "breadth_first",
        "completed",
        "processors",
        "transition_factor",
        "check_bounds",
    )

    def __init__(
        self,
        *,
        total_work: int | None = None,
        total_span: float | None = None,
        convergence_rate: float | None = None,
        breadth_first: bool = True,
        completed: bool = True,
        processors: int | None = None,
        transition_factor: float | None = None,
        check_bounds: bool = False,
    ) -> None:
        self.total_work = total_work
        self.total_span = total_span
        self.convergence_rate = convergence_rate
        self.breadth_first = breadth_first
        self.completed = completed
        self.processors = processors
        self.transition_factor = transition_factor
        self.check_bounds = check_bounds


def _rel_close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def audit_trace(
    trace: JobTrace,
    expect: TraceExpectations | None = None,
    *,
    rtol: float = 1e-9,
    atol: float = 1e-6,
) -> AuditReport:
    """Audit one job's quantum trace against the paper's model invariants.

    Returns an :class:`AuditReport`; ``report.ok`` means every applicable
    invariant held.  Pass a :class:`TraceExpectations` to unlock the checks
    that need ground truth (conservation against the job's true ``T1`` /
    ``Tinf``, the A-Control recurrence for a known convergence rate, and the
    Theorem 3/4 bounds).
    """
    exp = expect if expect is not None else TraceExpectations()
    jid = trace.job_id
    out: list[Violation] = []
    checks: list[str] = [
        V.V_QUANTUM_INDEX,
        V.V_FIRST_REQUEST,
        V.V_REQUEST_NOT_CEIL,
        V.V_ALLOTMENT_EXCEEDS_AVAILABLE,
        V.V_ALLOTMENT_EXCEEDS_REQUEST,
        V.V_STEPS_EXCEED_QUANTUM,
        V.V_EARLY_STOP_NOT_LAST,
        V.V_WORK_EXCEEDS_CAPACITY,
        V.V_IDLE_WITH_READY_TASKS,
        V.V_SPAN_EXCEEDS_WORK,
    ]

    records = trace.records
    if not records:
        return AuditReport(violations=(), checks=tuple(checks))

    # --- per-quantum structural invariants --------------------------------
    for i, rec in enumerate(records):
        q = rec.index
        if q != i + 1:
            out.append(
                Violation(
                    V.V_QUANTUM_INDEX,
                    f"quantum index {q} at position {i} (expected {i + 1})",
                    job_id=jid,
                    quantum=q,
                )
            )
        expected_int = integer_request(rec.request)
        if rec.request_int != expected_int:
            out.append(
                Violation(
                    V.V_REQUEST_NOT_CEIL,
                    f"request_int {rec.request_int} != ceil(d)={expected_int} "
                    f"for d={rec.request!r}",
                    job_id=jid,
                    quantum=q,
                    measured=rec.request_int,
                    bound=expected_int,
                )
            )
        if rec.allotment > rec.available:
            out.append(
                Violation(
                    V.V_ALLOTMENT_EXCEEDS_AVAILABLE,
                    f"a(q)={rec.allotment} > p(q)={rec.available}",
                    job_id=jid,
                    quantum=q,
                    measured=rec.allotment,
                    bound=rec.available,
                )
            )
        if rec.allotment > rec.request_int:
            out.append(
                Violation(
                    V.V_ALLOTMENT_EXCEEDS_REQUEST,
                    f"allocator not conservative: a(q)={rec.allotment} > "
                    f"ceil(d(q))={rec.request_int}",
                    job_id=jid,
                    quantum=q,
                    measured=rec.allotment,
                    bound=rec.request_int,
                )
            )
        if rec.steps > rec.quantum_length:
            out.append(
                Violation(
                    V.V_STEPS_EXCEED_QUANTUM,
                    f"steps={rec.steps} > L={rec.quantum_length}",
                    job_id=jid,
                    quantum=q,
                    measured=rec.steps,
                    bound=rec.quantum_length,
                )
            )
        if rec.steps < rec.quantum_length and i != len(records) - 1:
            out.append(
                Violation(
                    V.V_EARLY_STOP_NOT_LAST,
                    f"quantum stopped at {rec.steps}/{rec.quantum_length} steps "
                    "but is not the job's final quantum",
                    job_id=jid,
                    quantum=q,
                )
            )
        if rec.work > rec.allotment * rec.steps:
            out.append(
                Violation(
                    V.V_WORK_EXCEEDS_CAPACITY,
                    f"T1(q)={rec.work} > a(q)*steps={rec.allotment * rec.steps}",
                    job_id=jid,
                    quantum=q,
                    measured=rec.work,
                    bound=rec.allotment * rec.steps,
                )
            )
        # Greedy non-idling: while the job is unfinished every step schedules
        # min(a, ready) >= 1 ready tasks, so a quantum's work is at least its
        # step count.  (Reallocation overhead deliberately breaks this; audit
        # overhead-free runs, which is what the paper models.)
        if rec.work < rec.steps:
            out.append(
                Violation(
                    V.V_IDLE_WITH_READY_TASKS,
                    f"greedy non-idling broken: T1(q)={rec.work} < steps={rec.steps} "
                    "(an unfinished job always has a ready task)",
                    job_id=jid,
                    quantum=q,
                    measured=rec.work,
                    bound=rec.steps,
                )
            )
        if rec.span > rec.work + atol:
            out.append(
                Violation(
                    V.V_SPAN_EXCEEDS_WORK,
                    f"Tinf(q)={rec.span} > T1(q)={rec.work}",
                    job_id=jid,
                    quantum=q,
                    measured=rec.span,
                    bound=float(rec.work),
                )
            )

    if exp.breadth_first:
        checks.append(V.V_SPAN_EXCEEDS_STEPS)
        for rec in records:
            if rec.span > rec.steps + atol:
                out.append(
                    Violation(
                        V.V_SPAN_EXCEEDS_STEPS,
                        f"beta(q) > 1 under breadth-first execution: "
                        f"Tinf(q)={rec.span} > steps={rec.steps}",
                        job_id=jid,
                        quantum=rec.index,
                        measured=rec.span,
                        bound=float(rec.steps),
                    )
                )

    # d(1) is assigned verbatim by FeedbackPolicy.first_request, never
    # computed, so exact comparison is the correct check here.
    if records[0].request != 1.0:  # noqa: ABG102
        out.append(
            Violation(
                V.V_FIRST_REQUEST,
                f"d(1)={records[0].request!r} (the paper initializes every "
                "policy at one processor)",
                job_id=jid,
                quantum=1,
                measured=records[0].request,
                bound=1.0,
            )
        )

    # --- whole-trace conservation -----------------------------------------
    if exp.completed and exp.total_work is not None:
        checks.append(V.V_WORK_CONSERVATION)
        measured_work = trace.total_work
        if measured_work != exp.total_work:
            out.append(
                Violation(
                    V.V_WORK_CONSERVATION,
                    f"sum of T1(q) = {measured_work} != job work T1 = "
                    f"{exp.total_work}",
                    job_id=jid,
                    measured=measured_work,
                    bound=float(exp.total_work),
                )
            )
    if exp.completed and exp.total_span is not None:
        checks.append(V.V_SPAN_CONSERVATION)
        measured_span = trace.total_span
        if exp.breadth_first:
            # B-Greedy measures the span exactly: every dag level contributes
            # fractions summing to one (Section 2's central claim).
            if not _rel_close(measured_span, exp.total_span, rtol, atol):
                out.append(
                    Violation(
                        V.V_SPAN_CONSERVATION,
                        f"sum of Tinf(q) = {measured_span} != Tinf = "
                        f"{exp.total_span} (B-Greedy measures span exactly)",
                        job_id=jid,
                        measured=measured_span,
                        bound=exp.total_span,
                    )
                )
        elif measured_span < exp.total_span - atol:
            out.append(
                Violation(
                    V.V_SPAN_CONSERVATION,
                    f"sum of Tinf(q) = {measured_span} < Tinf = {exp.total_span}"
                    " (any greedy schedule advances at least the critical path)",
                    job_id=jid,
                    measured=measured_span,
                    bound=exp.total_span,
                )
            )

    # --- A-Control recurrence (Equation 3) --------------------------------
    if exp.convergence_rate is not None:
        checks.append(V.V_ACONTROL_RECURRENCE)
        r = exp.convergence_rate
        for prev, cur in zip(records, records[1:]):
            a_prev = prev.avg_parallelism
            # An empty quantum carries no parallelism signal; the policy holds.
            expected = prev.request if a_prev <= 0.0 else r * prev.request + (1.0 - r) * a_prev
            if not _rel_close(cur.request, expected, rtol, atol):
                out.append(
                    Violation(
                        V.V_ACONTROL_RECURRENCE,
                        f"d({cur.index})={cur.request!r} != r*d(q-1)+(1-r)*A(q-1)"
                        f"={expected!r} with r={r}",
                        job_id=jid,
                        quantum=cur.index,
                        measured=cur.request,
                        bound=expected,
                    )
                )

    # --- Theorem 3 / 4 bound satisfaction ---------------------------------
    if (
        exp.check_bounds
        and exp.completed
        and exp.convergence_rate is not None
        and exp.total_work is not None
        and exp.total_span is not None
    ):
        r = exp.convergence_rate
        c = (
            exp.transition_factor
            if exp.transition_factor is not None
            else trace.measured_transition_factor()
        )
        checks.append(V.V_THEOREM3_TIME_BOUND)
        t3 = theorem3_time_bound(
            trace,
            exp.total_work,
            exp.total_span,
            r,
            transition_factor=c,
        )
        if not t3.holds:
            out.append(
                Violation(
                    V.V_THEOREM3_TIME_BOUND,
                    f"running time {t3.running_time} exceeds Theorem 3 bound "
                    f"{t3.bound:.6g} (CL={c:.6g}, r={r})",
                    job_id=jid,
                    measured=float(t3.running_time),
                    bound=t3.bound,
                )
            )
        if r * c < 1.0 and exp.processors is not None:
            checks.append(V.V_THEOREM4_WASTE_BOUND)
            w_bound = theorem4_waste_bound(
                exp.total_work,
                exp.processors,
                trace.quantum_length,
                c,
                r,
            )
            waste = trace.total_waste
            if waste > w_bound * (1.0 + rtol):
                out.append(
                    Violation(
                        V.V_THEOREM4_WASTE_BOUND,
                        f"waste {waste} exceeds Theorem 4 bound {w_bound:.6g} "
                        f"(CL={c:.6g}, r={r})",
                        job_id=jid,
                        measured=float(waste),
                        bound=w_bound,
                    )
                )

    return AuditReport(violations=tuple(out), checks=tuple(checks))


def audit_multi_result(
    result: MultiJobResult,
    *,
    expectations: Mapping[int, TraceExpectations] | None = None,
    fair: bool = True,
    non_reserving: bool = True,
    rtol: float = 1e-9,
    atol: float = 1e-6,
) -> AuditReport:
    """Audit a multiprogrammed run: every per-job trace plus the machine-wide
    allocation invariants at every quantum boundary.

    ``fair`` / ``non_reserving`` enable the DEQ-specific checks of Theorem 5
    (equal shares among deprived jobs; no idle processor while a job is
    deprived) — disable them when auditing a run under an allocator that does
    not promise those properties (e.g. round-robin).
    """
    P = result.processors
    L = result.quantum_length
    reports: list[AuditReport] = []
    for jid, trace in sorted(result.traces.items()):
        exp = expectations.get(jid) if expectations is not None else None
        reports.append(audit_trace(trace, exp, rtol=rtol, atol=atol))

    out: list[Violation] = []
    checks: list[str] = [
        V.V_CAPACITY_EXCEEDED,
        V.V_RELEASE_ORDER,
        V.V_BOUNDARY_ALIGNMENT,
    ]
    if fair:
        checks.append(V.V_DEQ_UNFAIR)
    if non_reserving:
        checks.append(V.V_RESERVATION)

    # Reconstruct machine-wide boundaries from the per-job records.
    boundaries: dict[int, list[tuple[int, int, int]]] = {}
    for jid, trace in result.traces.items():
        release = result.released.get(jid, trace.release_time)
        if trace.records and trace.records[0].start_step < release:
            out.append(
                Violation(
                    V.V_RELEASE_ORDER,
                    f"first quantum starts at {trace.records[0].start_step} "
                    f"before release at {release}",
                    job_id=jid,
                    quantum=1,
                )
            )
        for rec in trace.records:
            if rec.start_step % L != 0:
                out.append(
                    Violation(
                        V.V_BOUNDARY_ALIGNMENT,
                        f"quantum starts at {rec.start_step}, not a multiple "
                        f"of L={L} (machine-wide quanta are synchronized)",
                        job_id=jid,
                        quantum=rec.index,
                    )
                )
            boundaries.setdefault(rec.start_step, []).append(
                (jid, rec.allotment, rec.request_int)
            )

    for start, entries in sorted(boundaries.items()):
        q = start // L + 1
        allotted = sum(a for _, a, _ in entries)
        if allotted > P:
            out.append(
                Violation(
                    V.V_CAPACITY_EXCEEDED,
                    f"boundary t={start}: total allotment {allotted} > P={P}",
                    quantum=q,
                    measured=float(allotted),
                    bound=float(P),
                )
            )
        deprived = [(j, a) for j, a, d in entries if a < d]
        satisfied = [(j, a) for j, a, d in entries if a >= d]
        if fair and deprived:
            allots = [a for _, a in deprived]
            if max(allots) - min(allots) > 1:
                out.append(
                    Violation(
                        V.V_DEQ_UNFAIR,
                        f"boundary t={start}: deprived jobs' allotments "
                        f"{sorted(allots)} differ by more than one",
                        quantum=q,
                    )
                )
            if satisfied:
                # DEQ's last round grants ``share`` or ``share + 1``, so a job
                # whose request is exactly ``share + 1`` and that drew the
                # rotating bonus is satisfied one processor above a deprived
                # job: allow the same one-processor slack as above.
                worst = min(allots)
                best_satisfied = max(a for _, a in satisfied)
                if best_satisfied > worst + 1:
                    out.append(
                        Violation(
                            V.V_DEQ_UNFAIR,
                            f"boundary t={start}: a satisfied job holds "
                            f"{best_satisfied} processors while a deprived job "
                            f"holds only {worst}",
                            quantum=q,
                        )
                    )
        if non_reserving and deprived and allotted < P:
            out.append(
                Violation(
                    V.V_RESERVATION,
                    f"boundary t={start}: {P - allotted} processor(s) idle "
                    "while a job is deprived (allocator must be non-reserving)",
                    quantum=q,
                    measured=float(allotted),
                    bound=float(P),
                )
            )

    reports.append(AuditReport(violations=tuple(out), checks=tuple(checks)))
    return V.merge_reports(reports)


def audit_dag_schedule(
    dag: Dag,
    schedule: Sequence[tuple[int, Sequence[int]]],
    *,
    breadth_first: bool = False,
    require_completion: bool = True,
) -> AuditReport:
    """Replay a step-level schedule against its dag.

    ``schedule`` is a sequence of ``(allotment, tasks)`` pairs, one per time
    step, as recorded by ``ExplicitExecutor(..., record_schedule=True)``.
    Checks, per step: every scheduled task exists, runs exactly once, and has
    all predecessors already executed (precedence); no more than
    ``min(allotment, ready)`` tasks run (capacity) and no fewer (greedy
    non-idling); under ``breadth_first``, scheduled tasks are drawn from the
    lowest ready levels (B-Greedy's priority rule).  Finally, with
    ``require_completion``, every task must have executed.
    """
    n = dag.num_tasks
    indegree = [dag.in_degree(t) for t in range(n)]
    done = [False] * n
    ready = {t for t in range(n) if indegree[t] == 0}
    out: list[Violation] = []
    checks = [
        V.V_PRECEDENCE,
        V.V_DOUBLE_EXECUTION,
        V.V_OVERSCHEDULED_STEP,
        V.V_IDLE_WITH_READY_TASKS,
    ]
    if breadth_first:
        checks.append(V.V_NOT_LOWEST_LEVEL_FIRST)
    if require_completion:
        checks.append(V.V_INCOMPLETE_DAG)

    for step, (allotment, tasks) in enumerate(schedule, start=1):
        expected = min(allotment, len(ready))
        if len(tasks) > expected:
            out.append(
                Violation(
                    V.V_OVERSCHEDULED_STEP,
                    f"step {step}: scheduled {len(tasks)} tasks, capacity is "
                    f"min(a={allotment}, ready={len(ready)})={expected}",
                    quantum=step,
                    measured=float(len(tasks)),
                    bound=float(expected),
                )
            )
        elif len(tasks) < expected:
            out.append(
                Violation(
                    V.V_IDLE_WITH_READY_TASKS,
                    f"step {step}: scheduled {len(tasks)} tasks while "
                    f"min(a={allotment}, ready={len(ready)})={expected} were "
                    "runnable (greedy non-idling)",
                    quantum=step,
                    measured=float(len(tasks)),
                    bound=float(expected),
                )
            )
        if breadth_first and tasks:
            valid_scheduled = [t for t in tasks if t in ready]
            unscheduled_ready = ready.difference(tasks)
            if valid_scheduled and unscheduled_ready:
                deepest_scheduled = max(dag.level_of(t) for t in valid_scheduled)
                shallowest_waiting = min(
                    dag.level_of(t) for t in unscheduled_ready
                )
                if shallowest_waiting < deepest_scheduled:
                    out.append(
                        Violation(
                            V.V_NOT_LOWEST_LEVEL_FIRST,
                            f"step {step}: scheduled a level-"
                            f"{deepest_scheduled} task while a level-"
                            f"{shallowest_waiting} task was ready "
                            "(B-Greedy is lowest-level-first)",
                            quantum=step,
                        )
                    )
        for t in tasks:
            if t < 0 or t >= n:
                out.append(
                    Violation(
                        V.V_PRECEDENCE,
                        f"step {step}: task {t} does not exist",
                        quantum=step,
                    )
                )
                continue
            if done[t]:
                out.append(
                    Violation(
                        V.V_DOUBLE_EXECUTION,
                        f"step {step}: task {t} executed twice",
                        quantum=step,
                    )
                )
                continue
            if t not in ready:
                missing = [
                    p for p in range(n) if not done[p] and t in dag.successors(p)
                ]
                out.append(
                    Violation(
                        V.V_PRECEDENCE,
                        f"step {step}: task {t} ran before predecessor(s) "
                        f"{missing[:4]} completed",
                        quantum=step,
                    )
                )
                continue
        # Commit the step's completions after validating all of them.
        for t in tasks:
            if 0 <= t < n and not done[t] and t in ready:
                done[t] = True
                ready.discard(t)
                for child in dag.successors(t):
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        ready.add(child)

    if require_completion:
        remaining = sum(1 for d in done if not d)
        if remaining:
            out.append(
                Violation(
                    V.V_INCOMPLETE_DAG,
                    f"{remaining} of {n} tasks never executed",
                    measured=float(n - remaining),
                    bound=float(n),
                )
            )
    return AuditReport(violations=tuple(out), checks=tuple(checks))
