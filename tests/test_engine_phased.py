"""Unit tests for the closed-form phased (fork-join) engine."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.reference import FixedRequest
from repro.core.types import JobTrace
from repro.dag import builders
from repro.engine import phased
from repro.engine.batched import BatchedDagExecutor
from repro.engine.phased import Phase, PhasedExecutor, PhasedJob
from repro.sim.jobs import JobSpec, closed_form_phases
from repro.sim.multi_batched import MultiBatchKernel
from repro.sim.superstep import SuperstepPlan
from repro.verify.violations import (
    InvariantError,
    V_IDLE_WITH_READY_TASKS,
    V_SPAN_EXCEEDS_STEPS,
    V_WORK_EXCEEDS_CAPACITY,
)


class TestPhase:
    def test_work(self):
        assert Phase(4, 3).work == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            Phase(0, 1)
        with pytest.raises(ValueError):
            Phase(1, 0)


class TestPhasedJob:
    def test_totals(self):
        job = PhasedJob([(1, 5), (4, 3)])
        assert job.work == 5 + 12
        assert job.span == 8
        assert job.average_parallelism == pytest.approx(17 / 8)
        assert job.max_width == 4

    def test_tuple_phases_normalized(self):
        job = PhasedJob([(2, 2)])
        assert isinstance(job.phases[0], Phase)

    def test_profile(self):
        job = PhasedJob([(1, 2), (3, 2)])
        assert job.parallelism_profile() == [1, 1, 3, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhasedJob([])

    def test_iteration_and_len(self):
        job = PhasedJob([(1, 1), (2, 2)])
        assert len(job) == 2
        assert [p.width for p in job] == [1, 2]

    def test_equality_and_hash(self):
        a = PhasedJob([(1, 2), (3, 4)])
        b = PhasedJob([(1, 2), (3, 4)])
        assert a == b and hash(a) == hash(b)
        assert a != PhasedJob([(1, 2)])

    def test_executor_factory(self):
        job = PhasedJob([(2, 2)])
        ex = job.executor()
        assert isinstance(ex, PhasedExecutor)
        assert not ex.finished


class TestPhasedExecutorSerial:
    def test_serial_phase_one_per_step(self):
        ex = PhasedExecutor(PhasedJob([(1, 10)]))
        res = ex.execute_quantum(allotment=5, max_steps=4)
        assert res.work == 4
        assert res.span == pytest.approx(4.0)
        assert res.steps == 4
        assert not res.finished

    def test_serial_completion(self):
        ex = PhasedExecutor(PhasedJob([(1, 3)]))
        res = ex.execute_quantum(8, 100)
        assert res.finished
        assert res.steps == 3
        assert res.work == 3


class TestPhasedExecutorParallel:
    def test_full_allotment_one_level_per_step(self):
        ex = PhasedExecutor(PhasedJob([(6, 5)]))
        res = ex.execute_quantum(6, 3)
        assert res.work == 18
        assert res.span == pytest.approx(3.0)

    def test_overallotment_does_not_speed_up(self):
        ex = PhasedExecutor(PhasedJob([(6, 5)]))
        res = ex.execute_quantum(50, 100)
        assert res.steps == 5  # one level per step, extra processors idle
        assert res.work == 30

    def test_deprived_throughput(self):
        # width 10, allotment 4: min(a, w) = 4 tasks/step away from the tail
        ex = PhasedExecutor(PhasedJob([(10, 8)]))
        res = ex.execute_quantum(4, 5)
        assert res.work == 20
        assert res.span == pytest.approx(2.0)

    def test_last_level_tail(self):
        # single-level phase: remaining shrinks, ceil(10/4) = 3 steps
        ex = PhasedExecutor(PhasedJob([(10, 1)]))
        res = ex.execute_quantum(4, 100)
        assert res.steps == 3
        assert res.work == 10
        assert res.finished

    def test_wavefront_spans_levels_in_one_step(self):
        # width 5, allotment 7: a step drains the partial level and overflows
        ex = PhasedExecutor(PhasedJob([(5, 4)]))
        r1 = ex.execute_quantum(3, 1)
        assert r1.work == 3
        r2 = ex.execute_quantum(7, 1)
        # 2 left on level 1 + 3 enabled on level 2 = 5 ready; min(7, 5) = 5
        assert r2.work == 5
        assert r2.span == pytest.approx(1.0)


class TestPhasedExecutorBarriers:
    def test_phase_boundary_not_crossed_in_one_step(self):
        # serial tail then parallel: the fork's children start next step
        ex = PhasedExecutor(PhasedJob([(1, 1), (8, 1)]))
        r1 = ex.execute_quantum(9, 1)
        assert r1.work == 1  # only the serial task runs
        r2 = ex.execute_quantum(9, 1)
        assert r2.work == 8
        assert r2.finished

    def test_multiple_phases_in_one_quantum(self):
        ex = PhasedExecutor(PhasedJob([(1, 2), (3, 2), (1, 1)]))
        res = ex.execute_quantum(3, 100)
        assert res.finished
        assert res.work == 2 + 6 + 1
        assert res.steps == 2 + 2 + 1
        assert res.span == pytest.approx(5.0)

    def test_quantum_ends_mid_phase(self):
        ex = PhasedExecutor(PhasedJob([(1, 2), (3, 4)]))
        res = ex.execute_quantum(3, 3)
        assert res.work == 2 + 3
        assert res.span == pytest.approx(3.0)
        res2 = ex.execute_quantum(3, 100)
        assert res2.finished
        assert res2.work == 9


class TestPhasedExecutorAccounting:
    def test_work_and_span_conservation(self):
        job = PhasedJob([(1, 7), (5, 6), (1, 3), (9, 2)])
        ex = PhasedExecutor(job)
        work, span = 0, 0.0
        while not ex.finished:
            r = ex.execute_quantum(4, 5)
            work += r.work
            span += r.span
        assert work == job.work
        assert span == pytest.approx(job.span)

    def test_remaining_work(self):
        job = PhasedJob([(2, 5)])
        ex = PhasedExecutor(job)
        ex.execute_quantum(2, 2)
        assert ex.remaining_work == 10 - 4

    def test_current_parallelism_tracks_phase(self):
        ex = PhasedExecutor(PhasedJob([(1, 2), (6, 2)]))
        assert ex.current_parallelism == 1.0
        ex.execute_quantum(1, 2)
        assert ex.current_parallelism == 6.0
        ex.execute_quantum(6, 10)
        assert ex.current_parallelism == 0.0

    def test_finished_job_rejects_execution(self):
        ex = PhasedExecutor(PhasedJob([(1, 1)]))
        ex.execute_quantum(1, 1)
        with pytest.raises(RuntimeError):
            ex.execute_quantum(1, 1)

    def test_invalid_args(self):
        ex = PhasedExecutor(PhasedJob([(1, 2)]))
        with pytest.raises(ValueError):
            ex.execute_quantum(0, 1)
        with pytest.raises(ValueError):
            ex.execute_quantum(1, 0)

    def test_breadth_first_span_within_steps(self):
        job = PhasedJob([(1, 3), (7, 5), (1, 2)])
        ex = PhasedExecutor(job)
        while not ex.finished:
            r = ex.execute_quantum(3, 4)
            assert r.span <= r.steps + 1e-9


class TestStrictModeSingleWriter:
    """Strict mode on every closed-form entry point (the phased engine, the
    batched dag executor, the multi-job kernel) raises the three
    closed-form violations from one check, ``PhasedExecutor._check_quantum``.

    The arithmetic cannot break these invariants on a valid job, so each
    case feeds an entry point state it trusts: a forged phase table (a
    ``work`` that is not ``width * levels``, a fractional width), a closed
    form whose throughput cap is broken, or a forged superstep plan.
    """

    @staticmethod
    def _forge(executor, width, levels, work):
        executor._job = SimpleNamespace(
            phases=[SimpleNamespace(width=width, levels=levels, work=work)]
        )
        return executor

    @staticmethod
    def _executors():
        return [
            PhasedExecutor(PhasedJob([(1, 1)]), strict=True),
            BatchedDagExecutor(builders.chain(1), strict=True),
        ]

    def _raises(self, code, run):
        with pytest.raises(InvariantError) as info:
            run()
        assert info.value.violation.code == code
        assert info.value.violation.message.startswith("closed form produced")

    def test_span_exceeds_steps(self):
        for ex in self._executors():
            # Four tasks on a width-1 level in one step: Tinf(q) = 4.
            self._forge(ex, 1, 1, 4)
            self._raises(V_SPAN_EXCEEDS_STEPS, lambda: ex.execute_quantum(4, 1))

    def test_idle_with_ready_tasks(self):
        for ex in self._executors():
            # Half a task per step: T1(q) = 1 over 2 steps.
            self._forge(ex, 0.5, 3, 1.5)
            self._raises(V_IDLE_WITH_READY_TASKS, lambda: ex.execute_quantum(1, 2))

    def test_work_exceeds_capacity(self, monkeypatch):
        # min -> max: the wavefront runs all 5 chains on 2 processors.
        monkeypatch.setattr(phased, "min", max, raising=False)
        for ex in self._executors():
            self._forge(ex, 5, 3, 15)
            self._raises(V_WORK_EXCEEDS_CAPACITY, lambda: ex.execute_quantum(2, 2))

    @pytest.mark.parametrize(
        "delta, span, code",
        [
            ([10, 30], [1.0, 3.0], V_WORK_EXCEEDS_CAPACITY),
            ([10, 1], [1.0, 0.1], V_IDLE_WITH_READY_TASKS),
            ([10, 10], [1.0, 12.0], V_SPAN_EXCEEDS_STEPS),
        ],
    )
    def test_kernel_first_flagged_slot(self, delta, span, code):
        kernel = MultiBatchKernel(strict=True)
        for jid in (0, 1):
            spec = JobSpec(job=PhasedJob([(10, 50)]), feedback=FixedRequest(2.0))
            trace = JobTrace(quantum_length=10, job_id=jid)
            kernel.admit([(jid, jid, spec, trace, closed_form_phases(spec.job), 2.0)])
        # Slot 0's quantum is clean (10 tasks on 1 processor for 10 steps);
        # slot 1's forged quantum breaks one invariant.
        plan = SuperstepPlan(
            quanta=np.array([5, 5], dtype=np.int64),
            delta=np.array(delta, dtype=np.int64),
            span=np.array(span, dtype=np.float64),
        )
        alloc = np.array([1, 2], dtype=np.int64)
        self._raises(code, lambda: kernel.apply_superstep(1, plan, alloc, 10))
