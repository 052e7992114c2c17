"""Unit and integration tests for the work-stealing substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import builders
from repro.sim.single import simulate_job
from repro.stealing.asteal import ABPPolicy, ASteal
from repro.stealing.deque import WorkStealingDeque
from repro.stealing.executor import WorkStealingExecutor


class TestDeque:
    def test_lifo_for_owner(self):
        d = WorkStealingDeque()
        d.push_bottom(1)
        d.push_bottom(2)
        assert d.pop_bottom() == 2
        assert d.pop_bottom() == 1
        assert d.pop_bottom() is None

    def test_fifo_for_thief(self):
        d = WorkStealingDeque()
        d.push_bottom(1)
        d.push_bottom(2)
        assert d.steal_top() == 1
        assert d.steal_top() == 2
        assert d.steal_top() is None

    def test_owner_and_thief_opposite_ends(self):
        d = WorkStealingDeque()
        for t in (1, 2, 3):
            d.push_bottom(t)
        assert d.steal_top() == 1
        assert d.pop_bottom() == 3
        assert len(d) == 1

    def test_drain(self):
        d = WorkStealingDeque()
        d.push_bottom(1)
        d.push_bottom(2)
        assert d.drain() == [1, 2]
        assert not d

    def test_bool_and_len(self):
        d = WorkStealingDeque()
        assert not d and len(d) == 0
        d.push_bottom(5)
        assert d and len(d) == 1


class TestWorkStealingExecutor:
    def test_serial_chain(self):
        ex = WorkStealingExecutor(builders.chain(10), np.random.default_rng(0))
        res = ex.execute_quantum(1, 100)
        assert res.finished
        assert res.work == 10
        assert res.steps == 10

    def test_work_conservation(self):
        dag = builders.fork_join_from_phases([(1, 5), (6, 8), (1, 3)])
        ex = WorkStealingExecutor(dag, np.random.default_rng(1))
        total = 0
        while not ex.finished:
            total += ex.execute_quantum(4, 7).work
        assert total == dag.work

    def test_span_fractions_sum(self):
        dag = builders.fork_join_from_phases([(3, 6), (1, 2)])
        ex = WorkStealingExecutor(dag, np.random.default_rng(2))
        span = 0.0
        while not ex.finished:
            span += ex.execute_quantum(3, 5).span
        assert span == pytest.approx(dag.span)

    def test_determinism_given_seed(self):
        dag = builders.fork_join_from_phases([(1, 4), (8, 10)])
        runs = []
        for _ in range(2):
            ex = WorkStealingExecutor(dag, np.random.default_rng(7))
            trace = []
            while not ex.finished:
                r = ex.execute_quantum(3, 6)
                trace.append((r.work, r.steps))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_worker_growth_and_mugging(self):
        dag = builders.fork_join_from_phases([(12, 20)])
        ex = WorkStealingExecutor(dag, np.random.default_rng(3))
        ex.execute_quantum(8, 5)
        ex.execute_quantum(2, 5)  # shrink: muggings happen
        assert ex.stats.muggings >= 6
        ex.execute_quantum(10, 200)  # grow again and finish
        assert ex.finished

    def test_steal_stats_populate(self):
        dag = builders.fork_join_from_phases([(1, 30), (8, 30)])
        ex = WorkStealingExecutor(dag, np.random.default_rng(4))
        while not ex.finished:
            ex.execute_quantum(8, 10)
        # the serial phase forces 7 workers to attempt steals constantly
        assert ex.stats.steal_attempts > 0
        assert ex.stats.successful_steals > 0
        assert 0.0 < ex.stats.steal_success_rate < 1.0

    def test_no_steals_single_worker(self):
        ex = WorkStealingExecutor(builders.chain(5), np.random.default_rng(5))
        ex.execute_quantum(1, 10)
        assert ex.stats.idle_cycles == 0
        assert ex.stats.steal_attempts == 0

    def test_current_parallelism(self):
        ex = WorkStealingExecutor(builders.wide_level(6), np.random.default_rng(6))
        assert ex.current_parallelism == 6.0
        ex.execute_quantum(6, 100)  # stealing needs ramp-up steps to spread
        assert ex.finished
        assert ex.current_parallelism == 0.0

    def test_finished_guard(self):
        ex = WorkStealingExecutor(builders.chain(1), np.random.default_rng(0))
        ex.execute_quantum(1, 2)
        with pytest.raises(RuntimeError):
            ex.execute_quantum(1, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 8)), min_size=1, max_size=3),
        st.integers(1, 6),
        st.integers(0, 1000),
    )
    def test_always_terminates_and_conserves(self, phases, allotment, seed):
        dag = builders.fork_join_from_phases(phases)
        ex = WorkStealingExecutor(dag, np.random.default_rng(seed))
        total = 0
        guard = 0
        while not ex.finished:
            total += ex.execute_quantum(allotment, 10).work
            guard += 1
            assert guard < 10_000
        assert total == dag.work


class TestASteal:
    def test_name(self):
        assert ASteal().name.startswith("A-Steal")

    def test_inherits_agreedy_rules(self):
        from conftest import make_record

        p = ASteal()
        rec = make_record(request=8.0, request_int=8, allotment=8, work=8000, span=1000.0)
        assert p.next_request(rec) == 16.0

    def test_abp_requests_the_whole_machine(self):
        abp = ABPPolicy(16)
        assert abp.first_request() == 16.0
        assert abp.name == "ABP(P=16)"


class TestIntegration:
    def test_asteal_adapts_abp_does_not(self):
        """A-Steal releases processors during serial phases; ABP holds the
        whole machine and wastes it (the related-work comparison)."""
        phases = [(1, 120), (8, 120), (1, 120)]
        dag = builders.fork_join_from_phases(phases)

        ex1 = WorkStealingExecutor(dag, np.random.default_rng(11))
        asteal_trace = simulate_job(ex1, ASteal(), 32, quantum_length=40)

        ex2 = WorkStealingExecutor(dag, np.random.default_rng(11))
        abp_trace = simulate_job(ex2, ABPPolicy(32), 32, quantum_length=40)

        assert asteal_trace.total_waste < abp_trace.total_waste / 2
        assert max(r.allotment for r in abp_trace) == 32
        assert min(r.allotment for r in asteal_trace.records[:-1]) <= 4

    def test_stealing_compare_driver(self):
        from repro.experiments import run_stealing_compare

        rows = run_stealing_compare(num_jobs=2, iterations=2, phase_levels=80)
        by_name = {r.scheduler: r for r in rows}
        assert set(by_name) == {"ABG", "A-Steal", "ABP"}
        # feedback beats no-feedback on waste by a wide margin
        assert by_name["A-Steal"].waste_norm < by_name["ABP"].waste_norm / 2
        assert by_name["ABG"].waste_norm <= by_name["A-Steal"].waste_norm * 1.2
        # ABP runs fast but occupies the whole machine
        assert by_name["ABP"].avg_allotment == pytest.approx(32.0, abs=0.5)


class TestMultiprogrammedStealing:
    def test_asteal_job_set_under_deq(self):
        """Executor factories let work-stealing jobs run in the
        multiprogrammed simulator (the He et al. two-level setting for
        A-Steal)."""
        import numpy as np

        from repro.allocators.equipartition import DynamicEquiPartitioning
        from repro.sim.jobs import JobSpec
        from repro.sim.multi import simulate_job_set

        dags = [
            builders.fork_join_from_phases([(1, 40), (6, 50)]),
            builders.fork_join_from_phases([(4, 80)]),
        ]
        specs = [
            JobSpec(
                job=(lambda d=d, i=i: WorkStealingExecutor(d, np.random.default_rng(i))),
                feedback=ASteal(),
                job_id=i,
            )
            for i, d in enumerate(dags)
        ]
        result = simulate_job_set(
            specs, DynamicEquiPartitioning(), 16, quantum_length=25
        )
        for i, dag in enumerate(dags):
            assert result.traces[i].total_work == dag.work

    def test_factory_returning_wrong_type_rejected(self):
        from repro.sim.jobs import make_executor

        with pytest.raises(TypeError):
            make_executor(lambda: "not an executor")
