"""Adversarial tests for the invariant auditor.

Hand-built violating traces and tampered schedules must each surface their
specific violation code; clean engine runs — including hypothesis-randomized
fork-join workloads — must audit clean.  Forged rows are written straight
into a trace's columns, bypassing ``QuantumRecord.__post_init__`` on
purpose: the whole point is to hand the auditor quanta the engines could
never emit.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.core.columnar import RECORD_FIELDS, TraceColumns
from repro.core.types import JobTrace, QuantumRecord
from repro.dag.builders import fork_join_from_phases
from repro.engine.explicit import ExplicitExecutor
from repro.engine.phased import PhasedJob
from repro.sim.jobs import JobSpec
from repro.sim.multi import MultiJobResult, simulate_job_set
from repro.sim.single import simulate_job
from repro.io.traces import load_traces, save_traces
from repro.verify import auditor
from repro.verify import violations as V
from repro.verify.auditor import (
    TraceExpectations,
    audit_dag_schedule,
    audit_multi_result,
    audit_trace,
)
from repro.verify.violations import AuditReport

P = 16
L = 50
RATE = 0.2


def tamper(trace: JobTrace, q: int, **overrides: object) -> JobTrace:
    """Copy of ``trace`` with quantum ``q``'s fields overridden, written
    straight into a fresh :class:`TraceColumns` so no record validation
    runs."""
    cols = trace.columns
    forged = {name: getattr(cols, name).copy() for name in RECORD_FIELDS}
    rows = forged["index"] == q
    for name, value in overrides.items():
        forged[name][rows] = value
    return JobTrace(trace.quantum_length, TraceColumns(**forged), job_id=trace.job_id)


@pytest.fixture(scope="module")
def clean_run() -> tuple[PhasedJob, JobTrace]:
    job = PhasedJob([(1, 30), (8, 30), (1, 30), (8, 30)])
    trace = simulate_job(job, AControl(RATE), P, quantum_length=L)
    assert len(trace) >= 4, "workload too small to tamper with"
    return job, trace


def full_expectations(job: PhasedJob) -> TraceExpectations:
    return TraceExpectations(
        total_work=job.work,
        total_span=job.span,
        convergence_rate=RATE,
        processors=P,
    )


class TestCleanTraces:
    def test_seed_engine_audits_clean(self, clean_run):
        job, trace = clean_run
        report = audit_trace(trace, full_expectations(job))
        assert report.ok, report.summary()
        # conservation and recurrence actually ran, they weren't skipped
        assert report.checked(V.V_WORK_CONSERVATION)
        assert report.checked(V.V_SPAN_CONSERVATION)
        assert report.checked(V.V_ACONTROL_RECURRENCE)

    def test_empty_trace_is_ok(self):
        report = audit_trace(JobTrace(quantum_length=L))
        assert report.ok

    def test_empty_trace_runs_whole_trace_checks(self):
        """A job that should have done work but recorded no quantum breaks
        conservation; the whole-trace checks run on it and are listed."""
        expect = TraceExpectations(total_work=50, total_span=5.0, convergence_rate=RATE)
        report = audit_trace(JobTrace(quantum_length=L), expect)
        assert report.codes() == {V.V_WORK_CONSERVATION, V.V_SPAN_CONSERVATION}
        assert report.checked(V.V_SPAN_EXCEEDS_STEPS)
        assert report.checked(V.V_ACONTROL_RECURRENCE)
        bounds = TraceExpectations(
            total_work=0, total_span=0.0, convergence_rate=RATE, processors=P, check_bounds=True
        )
        assert audit_trace(JobTrace(quantum_length=L), bounds).ok

    def test_negative_request_in_a_trace_file_is_reported(self, clean_run, tmp_path):
        """The loader accepts any finite request; the audit of a loaded
        ``-1.0`` reports it instead of raising."""
        _, trace = clean_run
        bad = tamper(trace, 3, request=-1.0)
        loaded = load_traces(save_traces({0: bad}, tmp_path / "traces.json"))
        report = audit_trace(loaded[0])
        (v,) = report.by_code(V.V_REQUEST_NOT_CEIL)
        assert v.quantum == 3 and "d=-1.0" in v.message
        result = MultiJobResult(traces=loaded, processors=P, quantum_length=L)
        assert V.V_REQUEST_NOT_CEIL in audit_multi_result(result).codes()


class TestForgedTraces:
    """Each structural invariant, broken in isolation."""

    def _mid_quantum(self, trace: JobTrace, min_allotment: int = 2) -> QuantumRecord:
        for rec in trace.records[1:-1]:
            if rec.allotment >= min_allotment:
                return rec
        pytest.fail("no mid-trace quantum with enough allotment")

    def test_over_allocation_beyond_available(self, clean_run):
        _, trace = clean_run
        rec = self._mid_quantum(trace)
        a = rec.available + 3
        bad = tamper(trace, rec.index, allotment=a, request=float(a), request_int=a)
        report = audit_trace(bad)
        assert report.codes() == {V.V_ALLOTMENT_EXCEEDS_AVAILABLE}
        (v,) = report.by_code(V.V_ALLOTMENT_EXCEEDS_AVAILABLE)
        assert v.quantum == rec.index
        assert v.measured == a and v.bound == rec.available
        assert type(v.measured) is int and type(v.bound) is int  # not numpy

    def test_over_allocation_beyond_request(self, clean_run):
        _, trace = clean_run
        rec = self._mid_quantum(trace)
        bad = tamper(trace, rec.index, request=1.0, request_int=1)
        report = audit_trace(bad)
        assert V.V_ALLOTMENT_EXCEEDS_REQUEST in report.codes()

    def test_request_not_ceiling(self, clean_run):
        _, trace = clean_run
        rec = self._mid_quantum(trace)
        bad = tamper(trace, rec.index, request_int=rec.request_int + 1)
        report = audit_trace(bad)
        assert report.codes() == {V.V_REQUEST_NOT_CEIL}

    def test_idle_with_ready_tasks(self, clean_run):
        _, trace = clean_run
        rec = self._mid_quantum(trace)
        w = rec.steps - 1
        bad = tamper(trace, rec.index, work=w, span=min(rec.span, float(w)))
        report = audit_trace(bad)
        assert report.codes() == {V.V_IDLE_WITH_READY_TASKS}

    def test_work_exceeds_capacity(self, clean_run):
        _, trace = clean_run
        rec = self._mid_quantum(trace)
        bad = tamper(trace, rec.index, work=rec.allotment * rec.steps + 5)
        report = audit_trace(bad)
        assert report.codes() == {V.V_WORK_EXCEEDS_CAPACITY}

    def test_span_exceeds_steps(self, clean_run):
        _, trace = clean_run
        for rec in trace.records[1:-1]:
            if rec.work > rec.steps + 2:
                break
        else:
            pytest.fail("no quantum with work > steps + 2")
        bad = tamper(trace, rec.index, span=float(rec.steps + 2))
        report = audit_trace(bad)
        assert report.codes() == {V.V_SPAN_EXCEEDS_STEPS}
        # a non-breadth-first trace is allowed to smear span across quanta
        relaxed = audit_trace(bad, TraceExpectations(breadth_first=False))
        assert relaxed.ok

    def test_span_exceeds_work(self, clean_run):
        _, trace = clean_run
        rec = self._mid_quantum(trace)
        bad = tamper(trace, rec.index, span=float(rec.work + 1))
        report = audit_trace(bad)
        assert V.V_SPAN_EXCEEDS_WORK in report.codes()

    def test_early_stop_not_last(self, clean_run):
        _, trace = clean_run
        rec = self._mid_quantum(trace)
        s = rec.steps - 1
        bad = tamper(
            trace,
            rec.index,
            steps=s,
            work=min(rec.work, rec.allotment * s),
            span=min(rec.span, float(s)),
        )
        report = audit_trace(bad)
        assert report.codes() == {V.V_EARLY_STOP_NOT_LAST}

    def test_first_request_not_one(self, clean_run):
        _, trace = clean_run
        bad = tamper(trace, 1, request=2.0, request_int=2)
        report = audit_trace(bad)
        assert report.codes() == {V.V_FIRST_REQUEST}

    def test_quantum_index_disorder(self, clean_run):
        _, trace = clean_run
        rec = trace.records[2]
        bad = tamper(trace, rec.index, index=rec.index + 7)
        report = audit_trace(bad)
        assert V.V_QUANTUM_INDEX in report.codes()


class TestConservationAndRecurrence:
    def test_work_conservation_violated(self, clean_run):
        job, trace = clean_run
        expect = TraceExpectations(total_work=job.work + 3)
        report = audit_trace(trace, expect)
        assert report.codes() == {V.V_WORK_CONSERVATION}

    def test_span_conservation_violated(self, clean_run):
        job, trace = clean_run
        expect = TraceExpectations(total_span=job.span + 1.0)
        report = audit_trace(trace, expect)
        assert report.codes() == {V.V_SPAN_CONSERVATION}

    def test_wrong_acontrol_gain_detected(self, clean_run):
        """A request that deviates from d(q) = r d(q-1) + (1-r) A(q-1)."""
        job, trace = clean_run
        rec = trace.records[2]
        d = rec.request + 0.7
        bad = tamper(trace, rec.index, request=d, request_int=math.ceil(d))
        report = audit_trace(bad, full_expectations(job))
        assert V.V_ACONTROL_RECURRENCE in report.codes()
        assert any(v.quantum == rec.index for v in report.by_code(V.V_ACONTROL_RECURRENCE))

    def test_trace_from_wrong_rate_fails_recurrence(self, clean_run):
        """Auditing an r=0.2 trace against r=0.5 must not pass: the recurrence
        pins the trace to its true gain."""
        job, trace = clean_run
        expect = TraceExpectations(convergence_rate=0.5)
        report = audit_trace(trace, expect)
        assert V.V_ACONTROL_RECURRENCE in report.codes()
        # sanity: the same trace against its true gain is clean
        assert audit_trace(trace, full_expectations(job)).ok


class TestDagScheduleReplay:
    @pytest.fixture(scope="class")
    def recorded(self):
        dag = fork_join_from_phases([(1, 3), (4, 3), (1, 2)])
        executor = ExplicitExecutor(dag, record_schedule=True)
        simulate_job(executor, AControl(RATE), 8, quantum_length=7)
        assert executor.schedule is not None
        return dag, executor.schedule

    def test_clean_replay(self, recorded):
        dag, schedule = recorded
        report = audit_dag_schedule(dag, schedule, breadth_first=True)
        assert report.ok, report.summary()

    def test_precedence_break(self, recorded):
        dag, schedule = recorded
        bad = list(schedule)
        bad[0], bad[-1] = bad[-1], bad[0]
        report = audit_dag_schedule(dag, bad)
        assert V.V_PRECEDENCE in report.codes()

    def test_double_execution(self, recorded):
        dag, schedule = recorded
        bad = list(schedule)
        a0, tasks0 = bad[0]
        a1, tasks1 = bad[1]
        bad[1] = (a1, [*tasks1, *tasks0])
        report = audit_dag_schedule(dag, bad)
        assert V.V_DOUBLE_EXECUTION in report.codes()

    def test_idle_step_with_ready_tasks(self, recorded):
        dag, schedule = recorded
        bad = list(schedule)
        for i, (a, tasks) in enumerate(bad):
            if len(tasks) > 1:
                bad[i] = (a, list(tasks)[:-1])
                break
        else:
            pytest.fail("no multi-task step to thin out")
        report = audit_dag_schedule(dag, bad)
        assert V.V_IDLE_WITH_READY_TASKS in report.codes()
        assert V.V_INCOMPLETE_DAG in report.codes()

    def test_overscheduled_step(self, recorded):
        dag, schedule = recorded
        bad = list(schedule)
        for i, (a, tasks) in enumerate(bad):
            if len(tasks) > 1:
                bad[i] = (1, tasks)
                break
        report = audit_dag_schedule(dag, bad)
        assert V.V_OVERSCHEDULED_STEP in report.codes()

    def test_truncated_schedule(self, recorded):
        dag, schedule = recorded
        report = audit_dag_schedule(dag, schedule[:-2])
        assert V.V_INCOMPLETE_DAG in report.codes()
        assert audit_dag_schedule(dag, schedule[:-2], require_completion=False).ok

    def test_depth_first_breaks_lowest_level_first(self):
        """A LIFO (depth-first) run of a wide dag on few processors must be
        flagged under the B-Greedy priority rule — and pass without it."""
        dag = fork_join_from_phases([(1, 2), (4, 6), (1, 2)])
        executor = ExplicitExecutor(dag, "lifo", record_schedule=True)
        simulate_job(executor, AControl(RATE), 2, quantum_length=5)
        assert executor.schedule is not None
        strict = audit_dag_schedule(dag, executor.schedule, breadth_first=True)
        assert V.V_NOT_LOWEST_LEVEL_FIRST in strict.codes()
        lax = audit_dag_schedule(dag, executor.schedule, breadth_first=False)
        assert lax.ok, lax.summary()


class TestMultiprogrammedAudit:
    @pytest.fixture()
    def deq_result(self):
        specs = [
            JobSpec(
                job=PhasedJob([(1, 20), (6, 20)]),
                feedback=AControl(RATE),
                job_id=i,
            )
            for i in range(3)
        ]
        return simulate_job_set(
            specs, DynamicEquiPartitioning(), processors=8, quantum_length=40
        )

    def test_clean_deq_run(self, deq_result):
        report = audit_multi_result(deq_result)
        assert report.ok, report.summary()
        assert report.checked(V.V_DEQ_UNFAIR)
        assert report.checked(V.V_RESERVATION)

    def test_capacity_exceeded(self, deq_result):
        trace = deq_result.traces[0]
        rec = trace.records[1]
        big = deq_result.processors
        deq_result.traces[0] = tamper(
            trace, rec.index, allotment=big, available=big, request=float(big), request_int=big
        )
        report = audit_multi_result(deq_result, fair=False, non_reserving=False)
        assert V.V_CAPACITY_EXCEEDED in report.codes()

    def test_reservation_detected(self, deq_result):
        # Forge one job as deprived at a boundary where processors were idle:
        # a non-reserving allocator must never leave it short.
        for jid, trace in sorted(deq_result.traces.items()):
            for rec in trace.records[1:]:
                peers = [
                    r
                    for t in deq_result.traces.values()
                    for r in t.records
                    if r.start_step == rec.start_step
                ]
                if sum(r.allotment for r in peers) < deq_result.processors:
                    want = rec.request_int + 5
                    deq_result.traces[jid] = tamper(
                        trace, rec.index, request=float(want), request_int=want
                    )
                    report = audit_multi_result(deq_result)
                    assert V.V_RESERVATION in report.codes()
                    return
        pytest.fail("no boundary with idle processors to forge against")


    @staticmethod
    def one_boundary(requests: dict[int, int], allots: dict[int, int], total: int):
        """A single-quantum run whose boundary holds ``allots``."""
        traces = {}
        for jid, req in requests.items():
            a = allots[jid]
            trace = JobTrace(quantum_length=L, job_id=jid)
            trace.append(
                QuantumRecord(
                    index=1,
                    request=float(req),
                    request_int=req,
                    available=a if a < req else total,
                    allotment=a,
                    work=a * L,
                    span=float(L),
                    steps=L,
                    quantum_length=L,
                    start_step=0,
                )
            )
            traces[jid] = trace
        return MultiJobResult(traces=traces, processors=total, quantum_length=L)

    def test_rotating_bonus_to_satisfied_job_is_fair(self):
        """DEQ's last round grants share or share+1: a job requesting
        exactly share+1 that draws the bonus is satisfied one processor
        above the deprived jobs, which is still a fair allocation."""
        requests = {0: 11, 1: 20, 2: 20}
        allots = DynamicEquiPartitioning().allocate(requests, 31)
        assert allots == {0: 11, 1: 10, 2: 10}
        report = audit_multi_result(self.one_boundary(requests, allots, 31))
        assert report.checked(V.V_DEQ_UNFAIR)
        assert V.V_DEQ_UNFAIR not in report.codes(), report.summary()

    def test_satisfied_job_two_above_deprived_is_unfair(self):
        requests = {0: 12, 1: 20, 2: 20}
        allots = {0: 12, 1: 10, 2: 10}
        report = audit_multi_result(
            self.one_boundary(requests, allots, 32), non_reserving=False
        )
        assert V.V_DEQ_UNFAIR in report.codes()


class TestStrictMode:
    """The engines' opt-in fail-fast counterpart of the post-hoc audit."""

    def test_phased_strict_runs_clean(self):
        job = PhasedJob([(1, 20), (6, 20)])
        trace = simulate_job(job, AControl(RATE), P, quantum_length=L, strict=True)
        assert trace.total_work == job.work

    def test_explicit_strict_runs_clean(self):
        dag = fork_join_from_phases([(1, 3), (4, 3)])
        trace = simulate_job(dag, AControl(RATE), 8, quantum_length=7, strict=True)
        assert trace.total_work == dag.work

    def test_strict_catches_corrupted_precedence_state(self):
        """Corrupting the executor's bookkeeping so a 'ready' task still has
        an incomplete predecessor must fail fast under strict mode."""
        from repro.verify.violations import InvariantError

        dag = fork_join_from_phases([(1, 2), (3, 2)])
        executor = ExplicitExecutor(dag, strict=True)
        executor.execute_quantum(1, 1)  # past the root, heap is populated
        corrupted = executor._heap[0][1]
        executor._indegree[corrupted] = 1
        with pytest.raises(InvariantError) as exc:
            executor.execute_quantum(1, 1)
        assert exc.value.violation.code == V.V_PRECEDENCE


class TestRandomizedCleanRuns:
    """Property test: whatever the workload shape, the seed engines satisfy
    every audited invariant end-to-end."""

    @settings(max_examples=40, deadline=None)
    @given(
        phases=st.lists(
            st.tuples(st.integers(1, 10), st.integers(1, 40)),
            min_size=1,
            max_size=5,
        ),
        rate=st.sampled_from([0.0, 0.2, 0.5]),
        quantum_length=st.integers(8, 60),
        processors=st.integers(2, 24),
    )
    def test_fork_join_runs_audit_clean(self, phases, rate, quantum_length, processors):
        job = PhasedJob(phases)
        trace = simulate_job(job, AControl(rate), processors, quantum_length=quantum_length)
        expect = TraceExpectations(
            total_work=job.work,
            total_span=job.span,
            convergence_rate=rate,
            processors=processors,
        )
        report = audit_trace(trace, expect)
        assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# The column path reports exactly what the scalar checks report
# ---------------------------------------------------------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@contextmanager
def scalar_everywhere() -> Iterator[None]:
    """Flag every row and every boundary, so the scalar checks run on all
    of them: the auditor's reference verdict."""

    def everything(flags):
        return lambda *args: np.ones_like(flags(*args))

    with ExitStack() as stack:
        for name in ("_row_flags", "_placement_flags", "_boundary_flags"):
            real = getattr(auditor, name)
            stack.enter_context(patch.object(auditor, name, everything(real)))
        yield


def same_on_both_paths(audit, *args, **kwargs) -> AuditReport:
    """The report of ``audit``, asserted equal to the all-scalar report and
    to the report with the traces joined a few rows at a time.

    Compared by ``repr``: violations, their order, their python scalar
    types (a numpy scalar reprs differently) and the checks tuple, with a
    NaN equal to a NaN."""
    column = audit(*args, **kwargs)
    with patch.object(auditor, "_BLOCK_ROWS", 5):
        small_blocks = audit(*args, **kwargs)
    with scalar_everywhere():
        scalar = audit(*args, **kwargs)
    assert repr(column) == repr(small_blocks) == repr(scalar)
    return column


def forged(trace: JobTrace, edits: dict[str, dict[int, object]]) -> JobTrace:
    """Copy of ``trace`` with ``edits[field][row]`` written into its columns
    (rows are 0-based positions, taken modulo the trace's length)."""
    cols = trace.columns
    columns = {name: getattr(cols, name).copy() for name in RECORD_FIELDS}
    for name, rows in edits.items():
        for row, value in rows.items():
            columns[name][row % len(cols)] = value
    return JobTrace(
        trace.quantum_length,
        TraceColumns(**columns),
        release_time=trace.release_time,
        job_id=trace.job_id,
    )


@st.composite
def deq_runs(draw: st.DrawFn) -> tuple[MultiJobResult, dict[int, TraceExpectations]]:
    """A random DEQ job set's result, and each job's expectations."""
    rate = draw(st.sampled_from([0.0, 0.2, 0.5]))
    phases = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 30)), min_size=1, max_size=3)
    jobs = [PhasedJob(p) for p in draw(st.lists(phases, min_size=1, max_size=5))]
    specs = [
        JobSpec(job=job, feedback=AControl(rate), job_id=jid, release_time=release)
        for jid, (job, release) in enumerate(
            zip(jobs, draw(st.lists(st.integers(0, 3), min_size=len(jobs), max_size=len(jobs))))
        )
    ]
    result = simulate_job_set(
        specs,
        DynamicEquiPartitioning(),
        processors=draw(st.integers(len(specs), 20)),
        quantum_length=draw(st.integers(4, 30)),
    )
    expectations = {
        spec.job_id: TraceExpectations(
            total_work=spec.job.work,
            total_span=spec.job.span,
            convergence_rate=rate,
            processors=result.processors,
        )
        for spec in specs
    }
    return result, expectations


#: One tamper per violation family: ``code -> edit(row, k, last)``.  ``row``
#: maps the tampered row's fields (and ``"P"``) to their values, ``k`` is a
#: positive magnitude and ``last`` tells whether the row is the trace's last;
#: ``edit`` returns the row's new values, or None when the row cannot carry
#: the tamper.
FAMILY_TAMPERS = {
    V.V_ALLOTMENT_EXCEEDS_AVAILABLE: lambda r, k, last: {
        "allotment": r["available"] + k,
        "request_int": r["available"] + k,
        "request": float(r["available"] + k),
    },
    V.V_ALLOTMENT_EXCEEDS_REQUEST: lambda r, k, last: {
        "allotment": r["request_int"] + k,
        "available": max(r["available"], r["request_int"] + k),
    },
    V.V_REQUEST_NOT_CEIL: lambda r, k, last: {"request_int": r["request_int"] + k},
    V.V_IDLE_WITH_READY_TASKS: lambda r, k, last: (
        {"work": r["steps"] - k, "span": 0.0} if r["steps"] >= k else None
    ),
    V.V_WORK_EXCEEDS_CAPACITY: lambda r, k, last: {"work": r["allotment"] * r["steps"] + k},
    V.V_SPAN_EXCEEDS_STEPS: lambda r, k, last: {"span": float(r["steps"] + k)},
    V.V_SPAN_EXCEEDS_WORK: lambda r, k, last: {"span": float(r["work"] + k)},
    V.V_EARLY_STOP_NOT_LAST: lambda r, k, last: (
        {"steps": r["quantum_length"] - k} if not last and r["quantum_length"] >= k else None
    ),
    V.V_QUANTUM_INDEX: lambda r, k, last: {"index": r["index"] + k},
    V.V_ACONTROL_RECURRENCE: lambda r, k, last: (
        {"request": r["request"] + 0.25 * k} if r["index"] > 1 else None
    ),
    V.V_FIRST_REQUEST: lambda r, k, last: (
        {"request": 1.0 + 0.25 * k} if r["index"] == 1 else None
    ),
    V.V_STEPS_EXCEED_QUANTUM: lambda r, k, last: {"steps": r["quantum_length"] + k},
    V.V_CAPACITY_EXCEEDED: lambda r, k, last: {
        "allotment": r["P"] + k,
        "available": r["P"] + k,
        "request_int": r["P"] + k,
    },
    V.V_BOUNDARY_ALIGNMENT: lambda r, k, last: {"start_step": r["start_step"] + k},
}


class TestColumnPathMatchesScalar:
    """Every report of the column path equals the report of the scalar
    checks run on every row and boundary: same violations, same order,
    same messages, same checks."""

    @settings(max_examples=40, deadline=None)
    @given(run=deq_runs(), expect=st.booleans(), fair=st.booleans(), nonres=st.booleans())
    def test_clean_deq_runs(self, run, expect, fair, nonres):
        result, expectations = run
        report = same_on_both_paths(
            audit_multi_result,
            result,
            expectations=expectations if expect else None,
            fair=fair,
            non_reserving=nonres,
        )
        assert report.ok, report.summary()
        for jid, trace in result.traces.items():
            assert same_on_both_paths(audit_trace, trace, expectations[jid]).ok

    @settings(max_examples=120, deadline=None)
    @given(
        run=deq_runs(),
        code=st.sampled_from(sorted(FAMILY_TAMPERS)),
        pick=st.integers(0, 10**6),
        row=st.integers(0, 10**6),
        k=st.integers(1, 5),
        breadth_first=st.booleans(),
    )
    def test_one_tamper_per_family(self, run, code, pick, row, k, breadth_first):
        result, expectations = run
        jids = sorted(result.traces)
        jid = jids[pick % len(jids)]
        trace = result.traces[jid]
        i = row % len(trace)
        values = {name: getattr(trace.columns, name)[i].item() for name in RECORD_FIELDS}
        values["P"] = result.processors
        overrides = FAMILY_TAMPERS[code](values, k, i == len(trace) - 1)
        assume(overrides is not None)
        if code == V.V_BOUNDARY_ALIGNMENT:
            assume(k % result.quantum_length)
        bad = forged(trace, {name: {i: value} for name, value in overrides.items()})
        tampered = dataclasses.replace(result, traces={**result.traces, jid: bad})
        report = same_on_both_paths(audit_multi_result, tampered, expectations=expectations)
        exp = expectations[jid]
        single = same_on_both_paths(
            audit_trace,
            bad,
            TraceExpectations(convergence_rate=exp.convergence_rate, breadth_first=breadth_first),
        )
        assert code in report.codes() | single.codes()

    @settings(max_examples=40, deadline=None)
    @given(
        run=deq_runs(),
        pick=st.integers(0, 10**6),
        work=st.integers(-3, 3),
        span=st.floats(-2, 2),
    )
    def test_conservation_tampers(self, run, pick, work, span):
        result, expectations = run
        jid = sorted(result.traces)[pick % len(result.traces)]
        exp = expectations[jid]
        wrong = {
            **expectations,
            jid: TraceExpectations(
                total_work=exp.total_work + work,
                total_span=exp.total_span + span,
                convergence_rate=exp.convergence_rate,
                breadth_first=pick % 2 == 0,
            ),
        }
        report = same_on_both_paths(audit_multi_result, result, expectations=wrong)
        if work:
            assert V.V_WORK_CONSERVATION in report.codes()

    @settings(max_examples=40, deadline=None)
    @given(run=deq_runs(), pick=st.integers(0, 10**6), late=st.integers(1, 200))
    def test_release_order_tamper(self, run, pick, late):
        result, expectations = run
        jid = sorted(result.traces)[pick % len(result.traces)]
        first = result.traces[jid].columns.start_step[0].item()
        released = {**result.released, jid: first + late}
        tampered = dataclasses.replace(result, released=released)
        report = same_on_both_paths(audit_multi_result, tampered)
        assert V.V_RELEASE_ORDER in report.codes()

    @settings(max_examples=150, deadline=None)
    @given(
        jobs=st.lists(
            st.lists(st.tuples(st.integers(1, 12), st.integers(0, 14)), min_size=1, max_size=3),
            min_size=1,
            max_size=6,
        ),
        total=st.integers(1, 40),
        fair=st.booleans(),
        nonres=st.booleans(),
    )
    @example(jobs=[[(11, 11)], [(20, 10)], [(20, 10)]], total=31, fair=True, nonres=True)
    @example(jobs=[[(12, 12)], [(20, 10)], [(20, 10)]], total=32, fair=True, nonres=True)
    @example(jobs=[[(20, 12)], [(20, 10)]], total=40, fair=True, nonres=True)
    @example(jobs=[[(20, 30)], [(20, 10)]], total=32, fair=True, nonres=True)
    def test_boundary_tampers(self, jobs, total, fair, nonres):
        """Capacity, unfair spread, a satisfied job above a deprived one and
        reservation, on boundaries of arbitrary requests and allotments:
        job ``j``'s ``q``-th ``(request, allotment)`` row starts quantum
        ``q``."""
        traces = {}
        for jid, rows in enumerate(jobs):
            records = [
                (q, float(req), req, total, a, a * L, float(L), L, L, (q - 1) * L)
                for q, (req, a) in enumerate(rows, start=1)
            ]
            traces[jid] = JobTrace(L, TraceColumns.from_rows(records), job_id=jid)
        result = MultiJobResult(traces=traces, processors=total, quantum_length=L)
        same_on_both_paths(audit_multi_result, result, fair=fair, non_reserving=nonres)

    @settings(max_examples=60, deadline=None)
    @given(
        run=deq_runs(),
        edits=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.sampled_from(RECORD_FIELDS),
                st.integers(INT64_MIN, INT64_MAX) | st.integers(-3, 60),
                st.floats() | st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0**62, 2.0**63, 1e300]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_random_forgeries(self, run, edits):
        """Any field of any row set to any value: extreme counts, negative,
        NaN and infinite requests and spans, several rows at once."""
        result, expectations = run
        jids = sorted(result.traces)
        traces = dict(result.traces)
        changes: dict[int, dict[str, dict[int, object]]] = {}
        for pick, row, name, count, value in edits:
            jid = jids[pick % len(jids)]
            is_float = name in ("request", "span")
            changes.setdefault(jid, {}).setdefault(name, {})[row] = value if is_float else count
        for jid, fields in changes.items():
            traces[jid] = forged(traces[jid], fields)
        tampered = dataclasses.replace(result, traces=traces)
        same_on_both_paths(audit_multi_result, tampered, expectations=expectations)
        same_on_both_paths(audit_multi_result, tampered)
        for jid in changes:
            same_on_both_paths(audit_trace, traces[jid], expectations[jid])

    @settings(max_examples=60, deadline=None)
    @given(
        allotment=st.integers(INT64_MIN, -(2**30)) | st.integers(2**30, INT64_MAX),
        steps=st.integers(2**30, INT64_MAX),
        work=st.integers(0, INT64_MAX),
        pick=st.integers(0, 10**6),
    )
    @example(allotment=2**31, steps=2**31, work=INT64_MAX, pick=0)
    @example(allotment=2**32, steps=2**31, work=INT64_MAX, pick=0)
    @example(allotment=INT64_MAX, steps=INT64_MAX, work=INT64_MAX, pick=0)
    @example(allotment=2**62, steps=2, work=5, pick=0)
    @example(allotment=-(2**40), steps=2**40, work=0, pick=0)  # wraps to 0 in int64
    def test_products_past_int64(self, clean_run, allotment, steps, work, pick):
        """``a(q) * steps`` near and past the int64 range: the python-int
        product decides whether ``T1(q)`` exceeds it."""
        _, trace = clean_run
        row = pick % len(trace)
        edits = {"allotment": {row: allotment}, "steps": {row: steps}, "work": {row: work}}
        bad = forged(trace, edits)
        report = same_on_both_paths(audit_trace, bad)
        exceeds = V.V_WORK_EXCEEDS_CAPACITY in report.codes()
        assert exceeds == (work > allotment * steps)
        result = MultiJobResult(traces={0: bad}, processors=P, quantum_length=L)
        same_on_both_paths(audit_multi_result, result)

    def test_product_wrapping_in_int64_is_caught(self):
        """``a * steps = -2**63 - 2`` wraps to ``2**63 - 2`` in int64, which
        would hide ``T1 = 5 > a * steps``; no other check fires on the row."""
        row = (1, 1.0, 1, 1, -(2**62) - 1, 5, 0.0, 2, 2, 0)
        trace = JobTrace(2, TraceColumns.from_rows([row]), job_id=0)
        report = same_on_both_paths(audit_trace, trace)
        assert report.codes() == {V.V_WORK_EXCEEDS_CAPACITY}

    @pytest.mark.parametrize("request_value", [-1.0, -1e-12, math.nan, math.inf, -math.inf, 1e300])
    def test_invalid_requests_are_reported(self, clean_run, request_value):
        _, trace = clean_run
        bad = forged(trace, {"request": {2: request_value}})
        report = same_on_both_paths(audit_trace, bad)
        assert any(v.quantum == 3 for v in report.by_code(V.V_REQUEST_NOT_CEIL))
