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

Checking on columns
-------------------
Trace audits read a trace's :class:`~repro.core.columnar.TraceColumns`;
:func:`audit_multi_result` joins the traces' columns in blocks of about
:data:`_BLOCK_ROWS` rows, so the per-row checks hold one block's arrays at
a time.  Each per-row check is one boolean mask over a block
(:func:`_row_flags`, :func:`_placement_flags`; the A-Control recurrence
with the scalar check's float operations in the same order), and the
machine-wide checks reduce every row's start step, allotment and integer
request grouped by start step (:func:`_boundary_flags`).  The masks decide
only *where to look*: the scalar checks (:func:`_trace_report`,
:func:`_boundary_violations`, :func:`_placement_violations`) write every
message and rerun on the flagged rows and boundaries alone.  So a report —
violations, their order, their messages and the ``checks`` tuple — is the
one the scalar checks give on every row, and a clean run costs a few array
passes.  Where int64 could overflow (a huge request's ceiling, a huge
``a(q) * steps`` or allotment sum) the mask flags and the python-int check
decides.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..analysis.bounds import theorem3_time_bound, theorem4_waste_bound
from ..core.columnar import RECORD_FIELDS, TraceColumns
from ..core.types import JobTrace, integer_request, integer_requests
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


#: The checks every trace audit runs, in report order.
_TRACE_CHECKS = (
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
)

#: Below this magnitude an int64 product, sum or ceiling cannot overflow;
#: at or above it the column flags leave the verdict to the python-int check.
_INT64_SAFE = 2.0**62

#: The columns the per-row checks read, in the order :func:`_trace_report`
#: unpacks them.
_ROW_FIELDS = RECORD_FIELDS[:-1]  # every field but start_step


#: Rows per block of traces whose columns the row checks join at once: they
#: hold one block's arrays at a time, however long the run.
_BLOCK_ROWS = 8192


# ---------------------------------------------------------------------------
# Column flags: which rows and boundaries the scalar checks must look at
# ---------------------------------------------------------------------------


def _blocks(lengths: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Consecutive trace ranges ``[lo, hi)`` holding at least
    :data:`_BLOCK_ROWS` rows each, the last one what is left."""
    lo = rows = 0
    for k, n in enumerate(lengths):
        rows += n
        if rows >= _BLOCK_ROWS:
            yield lo, k + 1
            lo, rows = k + 1, 0
    if lo < len(lengths):
        yield lo, len(lengths)


def _join(columns: Sequence[TraceColumns], name: str) -> np.ndarray:
    """Field ``name`` of every trace, end to end."""
    if not columns:  # np.concatenate needs at least one array
        return getattr(TraceColumns.empty(), name)
    return np.concatenate([getattr(c, name) for c in columns])


def _concat(columns: Sequence[TraceColumns]) -> tuple[TraceColumns, np.ndarray]:
    """Every trace's columns end to end, with the row offsets: trace ``k``
    holds rows ``offsets[k]:offsets[k + 1]``."""
    offsets = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in columns], out=offsets[1:])
    if len(columns) == 1:
        return columns[0], offsets
    return TraceColumns(**{name: _join(columns, name) for name in RECORD_FIELDS}), offsets


def _row_flags(
    cols: TraceColumns,
    offsets: np.ndarray,
    exps: Sequence[TraceExpectations],
    rtol: float,
    atol: float,
) -> np.ndarray:
    """Rows on which some per-row check of :func:`_trace_report` may fire.

    ``cols`` holds the traces audited under ``exps`` end to end (see
    :func:`_concat`).  Each mask repeats its scalar check's comparison on
    the int64/float64 columns, the A-Control recurrence with the same float
    operations in the same order.  Where int64 could overflow (the ceiling
    of a huge request, a huge ``a(q) * steps``) the row is flagged and the
    python-int check decides.
    """
    n = len(cols)
    lengths = np.diff(offsets)
    position = np.arange(n, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    last = np.zeros(n, dtype=bool)
    last[offsets[1:][lengths > 0] - 1] = True
    breadth_first = np.repeat(np.array([e.breadth_first for e in exps], dtype=bool), lengths)
    rates = [e.convergence_rate for e in exps]
    has_rate = np.repeat(np.array([r is not None for r in rates], dtype=bool), lengths)
    rate = np.repeat(np.array([0.0 if r is None else r for r in rates], dtype=np.float64), lengths)
    d, d_int = cols.request, cols.request_int
    a, steps, ql = cols.allotment, cols.steps, cols.quantum_length
    t1, tinf = cols.work, cols.span
    with np.errstate(all="ignore"):
        ceil_ok = (d >= 0.0) & (d < _INT64_SAFE)  # False on NaN
        flags = cols.index != position + 1
        flags |= ~ceil_ok | (integer_requests(np.where(ceil_ok, d, 0.0)) != d_int)
        flags |= (a > cols.available) | (a > d_int) | (steps > ql)
        flags |= (steps < ql) & ~last
        flags |= (np.abs(a * steps.astype(np.float64)) >= _INT64_SAFE) | (t1 > a * steps)
        flags |= t1 < steps
        flags |= tinf > t1 + atol
        flags |= breadth_first & (tinf > steps + atol)
        rows = np.flatnonzero(has_rate & (position > 0))
        if rows.size:
            r, here, d_prev = rate[rows], d[rows], d[rows - 1]
            t1_prev, tinf_prev = t1[rows - 1], tinf[rows - 1]
            a_prev = np.where(tinf_prev == 0, 0.0, t1_prev / tinf_prev)
            expected = np.where(a_prev <= 0.0, d_prev, r * d_prev + (1.0 - r) * a_prev)
            scale = np.maximum(np.abs(here), np.abs(expected))
            close = np.abs(here - expected) <= atol + rtol * scale
            flags[rows[~close]] = True
    return flags


def _placement_flags(
    cols: TraceColumns, offsets: np.ndarray, releases: Sequence[int], L: int
) -> np.ndarray:
    """Rows that start off the machine-wide quantum grid, plus each trace's
    first row when it starts before the job's release."""
    starts = cols.start_step
    flags = starts % L != 0
    nonempty = np.diff(offsets) > 0
    firsts = offsets[:-1][nonempty]
    early = starts[firsts] < np.asarray(releases)[nonempty]
    flags[firsts[early]] = True
    return flags


def _boundary_flags(
    allot: np.ndarray,
    req: np.ndarray,
    heads: np.ndarray,
    P: int,
    fair: bool,
    non_reserving: bool,
) -> np.ndarray:
    """Boundaries on which some check of :func:`_boundary_violations` may fire.

    Rows are sorted by start step; boundary ``b`` is the run of rows from
    ``heads[b]`` to the next head.  If an allotment sum could overflow
    int64, every boundary is flagged.
    """
    if not heads.size:
        return np.zeros(0, dtype=bool)
    if float(np.abs(allot.astype(np.float64)).max()) * allot.size >= _INT64_SAFE:
        return np.ones(heads.size, dtype=bool)
    allotted = np.add.reduceat(allot, heads)
    flags = allotted > P
    deprived = allot < req
    any_deprived = np.logical_or.reduceat(deprived, heads)
    if fair:
        hi, lo = allot.max(), allot.min()
        worst = np.minimum.reduceat(np.where(deprived, allot, hi), heads)
        spread = np.maximum.reduceat(np.where(deprived, allot, lo), heads) - worst
        best_satisfied = np.maximum.reduceat(np.where(deprived, lo, allot), heads)
        any_satisfied = ~np.logical_and.reduceat(deprived, heads)
        above = any_satisfied & (best_satisfied > worst + 1)
        flags |= any_deprived & ((spread > 1) | above)
    if non_reserving:
        flags |= any_deprived & (allotted < P)
    return flags


# ---------------------------------------------------------------------------
# Scalar checks: the message writers, run on flagged rows and boundaries
# ---------------------------------------------------------------------------


def _trace_report(
    trace: JobTrace,
    exp: TraceExpectations,
    rows: np.ndarray,
    rtol: float,
    atol: float,
) -> AuditReport:
    """One trace's report: the per-row checks on ``rows`` (ascending
    positions; :func:`_row_flags` picks them, and every other row passes
    them), the whole-trace checks once."""
    jid = trace.job_id
    cols = trace.columns
    n = len(cols)
    out: list[Violation] = []
    checks = list(_TRACE_CHECKS)
    # Python scalars, never numpy ones: they end up in the violations.
    flagged: list[tuple[Any, ...]] = []
    if rows.size:
        values = (getattr(cols, name)[rows].tolist() for name in _ROW_FIELDS)
        flagged = list(zip(rows.tolist(), *values))

    # --- per-quantum structural invariants --------------------------------
    for i, q, d, d_int, p, a, t1, tinf, st, ql in flagged:
        if q != i + 1:
            out.append(
                Violation(
                    V.V_QUANTUM_INDEX,
                    f"quantum index {q} at position {i} (expected {i + 1})",
                    job_id=jid,
                    quantum=q,
                )
            )
        if not 0.0 <= d < math.inf:  # NaN fails too
            out.append(
                Violation(
                    V.V_REQUEST_NOT_CEIL,
                    f"request_int {d_int} for invalid request d={d!r} "
                    "(a request is finite and non-negative)",
                    job_id=jid,
                    quantum=q,
                    measured=d_int,
                )
            )
        elif d_int != (expected_int := integer_request(d)):
            out.append(
                Violation(
                    V.V_REQUEST_NOT_CEIL,
                    f"request_int {d_int} != ceil(d)={expected_int} for d={d!r}",
                    job_id=jid,
                    quantum=q,
                    measured=d_int,
                    bound=expected_int,
                )
            )
        if a > p:
            out.append(
                Violation(
                    V.V_ALLOTMENT_EXCEEDS_AVAILABLE,
                    f"a(q)={a} > p(q)={p}",
                    job_id=jid,
                    quantum=q,
                    measured=a,
                    bound=p,
                )
            )
        if a > d_int:
            out.append(
                Violation(
                    V.V_ALLOTMENT_EXCEEDS_REQUEST,
                    f"allocator not conservative: a(q)={a} > ceil(d(q))={d_int}",
                    job_id=jid,
                    quantum=q,
                    measured=a,
                    bound=d_int,
                )
            )
        if st > ql:
            out.append(
                Violation(
                    V.V_STEPS_EXCEED_QUANTUM,
                    f"steps={st} > L={ql}",
                    job_id=jid,
                    quantum=q,
                    measured=st,
                    bound=ql,
                )
            )
        if st < ql and i != n - 1:
            out.append(
                Violation(
                    V.V_EARLY_STOP_NOT_LAST,
                    f"quantum stopped at {st}/{ql} steps "
                    "but is not the job's final quantum",
                    job_id=jid,
                    quantum=q,
                )
            )
        if t1 > a * st:
            out.append(
                Violation(
                    V.V_WORK_EXCEEDS_CAPACITY,
                    f"T1(q)={t1} > a(q)*steps={a * st}",
                    job_id=jid,
                    quantum=q,
                    measured=t1,
                    bound=a * st,
                )
            )
        # Greedy non-idling: while the job is unfinished every step schedules
        # min(a, ready) >= 1 ready tasks, so a quantum's work is at least its
        # step count.  (Reallocation overhead deliberately breaks this; audit
        # overhead-free runs, which is what the paper models.)
        if t1 < st:
            out.append(
                Violation(
                    V.V_IDLE_WITH_READY_TASKS,
                    f"greedy non-idling broken: T1(q)={t1} < steps={st} "
                    "(an unfinished job always has a ready task)",
                    job_id=jid,
                    quantum=q,
                    measured=t1,
                    bound=st,
                )
            )
        if tinf > t1 + atol:
            out.append(
                Violation(
                    V.V_SPAN_EXCEEDS_WORK,
                    f"Tinf(q)={tinf} > T1(q)={t1}",
                    job_id=jid,
                    quantum=q,
                    measured=tinf,
                    bound=float(t1),
                )
            )

    if exp.breadth_first:
        checks.append(V.V_SPAN_EXCEEDS_STEPS)
        for _, q, *_, tinf, st, _ in flagged:
            if tinf > st + atol:
                out.append(
                    Violation(
                        V.V_SPAN_EXCEEDS_STEPS,
                        f"beta(q) > 1 under breadth-first execution: "
                        f"Tinf(q)={tinf} > steps={st}",
                        job_id=jid,
                        quantum=q,
                        measured=tinf,
                        bound=float(st),
                    )
                )

    # d(1) is assigned verbatim by FeedbackPolicy.first_request, never
    # computed, so exact comparison is the correct check here.
    first = cols.request[0].item() if n else 1.0  # an empty trace has no d(1)
    if first != 1.0:  # abg: allow[ABG102] reason=d(1) is assigned verbatim
        out.append(
            Violation(
                V.V_FIRST_REQUEST,
                f"d(1)={first!r} (the paper initializes every "
                "policy at one processor)",
                job_id=jid,
                quantum=1,
                measured=first,
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
        prev = np.maximum(rows - 1, 0)
        previous = zip(
            cols.request[prev].tolist(), cols.work[prev].tolist(), cols.span[prev].tolist()
        )
        for (i, q, d, *_), (d_prev, t1_prev, tinf_prev) in zip(flagged, previous):
            if i == 0:
                continue
            # A(q-1), with QuantumRecord.avg_parallelism's empty-quantum zero.
            a_prev = 0.0 if tinf_prev == 0 else t1_prev / tinf_prev
            # An empty quantum carries no parallelism signal; the policy holds.
            expected = d_prev if a_prev <= 0.0 else r * d_prev + (1.0 - r) * a_prev
            if not _rel_close(d, expected, rtol, atol):
                out.append(
                    Violation(
                        V.V_ACONTROL_RECURRENCE,
                        f"d({q})={d!r} != r*d(q-1)+(1-r)*A(q-1)"
                        f"={expected!r} with r={r}",
                        job_id=jid,
                        quantum=q,
                        measured=d,
                        bound=expected,
                    )
                )

    # --- Theorem 3 / 4 bound satisfaction ---------------------------------
    # The bounds are about a run: an empty trace has no running time to bound.
    if (
        n
        and exp.check_bounds
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


def _placement_violations(
    jid: int, release: int, cols: TraceColumns, rows: np.ndarray, L: int, out: list[Violation]
) -> None:
    """The release check on a trace's first row and the grid check on
    ``rows`` (ascending positions; :func:`_placement_flags` picks them)."""
    starts = cols.start_step
    if len(cols) and (first := starts[0].item()) < release:
        out.append(
            Violation(
                V.V_RELEASE_ORDER,
                f"first quantum starts at {first} before release at {release}",
                job_id=jid,
                quantum=1,
            )
        )
    for q, start in zip(cols.index[rows].tolist(), starts[rows].tolist()):
        if start % L != 0:
            out.append(
                Violation(
                    V.V_BOUNDARY_ALIGNMENT,
                    f"quantum starts at {start}, not a multiple "
                    f"of L={L} (machine-wide quanta are synchronized)",
                    job_id=jid,
                    quantum=q,
                )
            )


def _boundary_violations(
    start: int,
    allots: list[int],
    requests: list[int],
    P: int,
    L: int,
    fair: bool,
    non_reserving: bool,
    out: list[Violation],
) -> None:
    """The machine-wide checks of the boundary at step ``start``, whose jobs
    hold ``allots`` against integer ``requests``."""
    q = start // L + 1
    allotted = sum(allots)
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
    deprived = [a for a, d in zip(allots, requests) if a < d]
    satisfied = [a for a, d in zip(allots, requests) if a >= d]
    if fair and deprived:
        if max(deprived) - min(deprived) > 1:
            out.append(
                Violation(
                    V.V_DEQ_UNFAIR,
                    f"boundary t={start}: deprived jobs' allotments "
                    f"{sorted(deprived)} differ by more than one",
                    quantum=q,
                )
            )
        if satisfied:
            # DEQ's last round grants ``share`` or ``share + 1``, so a job
            # whose request is exactly ``share + 1`` and that drew the
            # rotating bonus is satisfied one processor above a deprived
            # job: allow the same one-processor slack as above.
            worst = min(deprived)
            best_satisfied = max(satisfied)
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


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


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
    cols = trace.columns
    offsets = np.array([0, len(cols)], dtype=np.int64)
    rows = np.flatnonzero(_row_flags(cols, offsets, [exp], rtol, atol))
    return _trace_report(trace, exp, rows, rtol, atol)


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
    traces = result.traces
    jids = list(traces)
    columns = [traces[jid].columns for jid in jids]
    given = expectations if expectations is not None else {}
    default = TraceExpectations()
    exps = [given.get(jid) or default for jid in jids]
    releases = [result.released.get(jid, traces[jid].release_time) for jid in jids]

    # Per-row flags, one block of traces at a time; flagged rows per trace.
    checked: list[np.ndarray] = []
    placed: list[np.ndarray] = []
    for lo, hi in _blocks([len(c) for c in columns]):
        cols, offsets = _concat(columns[lo:hi])
        for flags, per_trace in (
            (_row_flags(cols, offsets, exps[lo:hi], rtol, atol), checked),
            (_placement_flags(cols, offsets, releases[lo:hi], L), placed),
        ):
            rows = np.flatnonzero(flags)
            cut = np.searchsorted(rows, offsets)  # trace k owns rows[cut[k]:cut[k + 1]]
            per_trace.extend(rows[cut[k] : cut[k + 1]] - offsets[k] for k in range(hi - lo))

    reports = [
        _trace_report(traces[jids[k]], exps[k], checked[k], rtol, atol)
        for k in sorted(range(len(jids)), key=jids.__getitem__)
    ]

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

    for k, rows in enumerate(placed):
        if rows.size:
            _placement_violations(jids[k], releases[k], columns[k], rows, L, out)

    # Machine-wide boundaries: every row grouped by start step, in step order.
    starts = _join(columns, "start_step")
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    allot = _join(columns, "allotment")[order]
    req = _join(columns, "request_int")[order]
    opens = np.ones(starts.size, dtype=bool)
    opens[1:] = starts[1:] != starts[:-1]
    heads = np.flatnonzero(opens)
    ends = [*heads[1:].tolist(), starts.size]
    for b in np.flatnonzero(_boundary_flags(allot, req, heads, P, fair, non_reserving)).tolist():
        h, e = int(heads[b]), ends[b]
        _boundary_violations(
            starts[h].item(),
            allot[h:e].tolist(),
            req[h:e].tolist(),
            P,
            L,
            fair,
            non_reserving,
            out,
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
