"""Adversarial tests for the invariant auditor.

Hand-built violating traces and tampered schedules must each surface their
specific violation code; clean engine runs — including hypothesis-randomized
fork-join workloads — must audit clean.  Forged records bypass
``QuantumRecord.__post_init__`` on purpose: the whole point is to hand the
auditor records the engines could never emit.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.core.types import JobTrace, QuantumRecord
from repro.dag.builders import fork_join_from_phases
from repro.engine.explicit import ExplicitExecutor
from repro.engine.phased import PhasedJob
from repro.sim.jobs import JobSpec
from repro.sim.multi import MultiJobResult, simulate_job_set
from repro.sim.single import simulate_job
from repro.verify import violations as V
from repro.verify.auditor import (
    TraceExpectations,
    audit_dag_schedule,
    audit_multi_result,
    audit_trace,
)

P = 16
L = 50
RATE = 0.2


def forge(rec: QuantumRecord, **overrides: object) -> QuantumRecord:
    """Clone a record with fields overridden, skipping validation."""
    clone = object.__new__(QuantumRecord)
    for f in dataclasses.fields(QuantumRecord):
        object.__setattr__(clone, f.name, overrides.get(f.name, getattr(rec, f.name)))
    return clone


def tamper(trace: JobTrace, q: int, **overrides: object) -> JobTrace:
    """Copy of ``trace`` with quantum ``q`` forged."""
    out = JobTrace(quantum_length=trace.quantum_length, job_id=trace.job_id)
    out.records = [forge(r, **overrides) if r.index == q else r for r in trace.records]
    return out


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
