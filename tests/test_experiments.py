"""Tests for the experiment drivers (small-scale runs of every figure)."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    bin_by_load,
    run_allocator_ablation,
    run_bounds_check,
    run_discipline_ablation,
    run_fig1,
    run_fig2,
    run_fig4,
    run_fig5,
    run_fig6,
    run_quantum_ablation,
    run_rate_ablation,
    run_theorem1,
    run_transient,
)
import numpy as np

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.experiments import fig6 as fig6_mod
from repro.runtime import CheckpointJournal
from repro.sim.jobs import JobSpec
from repro.sim.metrics import makespan_lower_bound, mean_response_time_lower_bound
from repro.sim.multi import simulate_job_set
from repro.workloads.jobsets import JobSetGenerator


class TestFig2:
    def test_matches_paper_exactly(self):
        r = run_fig2()
        assert r.quantum_work == 12
        assert r.quantum_span == pytest.approx(2.4)
        assert r.avg_parallelism == pytest.approx(5.0)
        assert r.matches_paper


class TestFig1AndFig4:
    def test_fig1_oscillation(self):
        r = run_fig1(parallelism=10, num_quanta=12, quantum_length=200)
        assert set(r.requests[4:]) == {8.0, 16.0}
        assert r.peak_request == 16.0

    def test_fig4_abg_monotone_no_overshoot(self):
        abg, _ = run_fig4(parallelism=10, num_quanta=8, quantum_length=200)
        reqs = abg.requests
        assert all(b >= a for a, b in zip(reqs, reqs[1:]))
        assert max(reqs) <= 10.0 + 1e-9

    def test_fig4_matches_equation3(self):
        abg, _ = run_fig4(
            parallelism=10, num_quanta=5, quantum_length=200, convergence_rate=0.2
        )
        d = 1.0
        for observed in abg.requests:
            assert observed == pytest.approx(d)
            d = 0.2 * d + 0.8 * 10.0

    def test_fig4_agreedy_overshoots(self):
        _, ag = run_fig4(parallelism=10, num_quanta=8, quantum_length=200)
        assert max(ag.requests) > 10.0

    def test_transient_parallelism_measured_correctly(self):
        r = run_transient(AControl(0.2), parallelism=7, num_quanta=6, quantum_length=100)
        assert all(a == pytest.approx(7.0) for a in r.measured_parallelism)

    def test_transient_validation(self):
        with pytest.raises(ValueError):
            run_transient(AControl(), parallelism=0)


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(factors=(2, 20, 60), jobs_per_factor=4, seed=7)

    def test_point_per_factor(self, result):
        assert [p.transition_factor for p in result.points] == [2, 20, 60]

    def test_abg_beats_agreedy_on_average(self, result):
        assert result.mean_time_ratio > 1.0
        assert result.mean_waste_ratio > 1.0

    def test_normalized_times_at_least_one(self, result):
        for p in result.points:
            assert p.abg_time_norm >= 1.0
            assert p.agreedy_time_norm >= 1.0

    def test_improvement_properties(self, result):
        assert 0.0 < result.mean_time_improvement < 1.0
        assert 0.0 < result.mean_waste_reduction < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fig5(factors=(2,), jobs_per_factor=0)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(num_sets=10, load_range=(0.3, 4.0), seed=11)

    def test_points_sorted_by_load(self, result):
        loads = [p.load for p in result.points]
        assert loads == sorted(loads)

    def test_normalized_metrics_at_least_one(self, result):
        for p in result.points:
            assert p.abg_makespan_norm >= 1.0 - 1e-9
            assert p.agreedy_makespan_norm >= 1.0 - 1e-9
            assert p.abg_response_norm >= 1.0 - 1e-9

    def test_binning_covers_all_points(self, result):
        bins = bin_by_load(result, num_bins=4)
        assert sum(b.count for b in bins) == len(result.points)

    def test_ratio_helpers(self, result):
        lm, lr = result.light_load_ratios(cutoff=None)
        hm, hr = result.heavy_load_ratios(cutoff=None)
        assert lm > 0 and lr > 0 and hm > 0 and hr > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fig6(num_sets=0)
        with pytest.raises(ValueError):
            run_fig6(num_sets=1, load_range=(2.0, 1.0))


#: A sweep spanning two chunks (the second one partial), kept small.
_CHUNKED = dict(
    num_sets=fig6_mod.CHUNK_SETS + 3,
    load_range=(0.3, 3.0),
    processors=32,
    quantum_length=200,
    seed=61,
)


def _per_set_points(*, num_sets, load_range, processors, quantum_length, seed):
    """The Figure 6 sweep one set at a time: per set and policy one lone
    ``simulate_job_set`` call under DEQ, from the set's ``[seed, index]``
    stream with ``run_fig6``'s default parameters."""
    points = []
    for index in range(num_sets):
        rng = np.random.default_rng([seed, index])
        gen = JobSetGenerator(processors, quantum_length=quantum_length)
        sample = gen.generate(rng, float(rng.uniform(*load_range)))
        runs = []
        for policy in (AControl(0.2), AGreedy(2.0, 0.8)):
            result = simulate_job_set(
                [JobSpec(job=job, feedback=policy) for job in sample.jobs],
                DynamicEquiPartitioning(),
                processors,
                quantum_length=quantum_length,
            )
            runs.append((float(result.makespan), float(result.mean_response_time)))
        (m_abg, r_abg), (m_ag, r_ag) = runs
        m_star = makespan_lower_bound(
            sample.works, sample.spans, [0] * len(sample.jobs), processors
        )
        r_star = mean_response_time_lower_bound(sample.works, sample.spans, processors)
        points.append(
            fig6_mod.Fig6Point(
                load=sample.load,
                num_jobs=len(sample.jobs),
                abg_makespan_norm=m_abg / m_star,
                agreedy_makespan_norm=m_ag / m_star,
                abg_response_norm=r_abg / r_star,
                agreedy_response_norm=r_ag / r_star,
                makespan_ratio=m_ag / m_abg,
                response_ratio=r_ag / r_abg,
            )
        )
    return sorted(points, key=lambda p: p.load)


class TestFig6Chunks:
    """``run_fig6`` runs each chunk of sets as disjoint machines of one
    simulation; the numbers must be those of one simulation per set."""

    def test_points_equal_per_set_runs(self):
        assert list(run_fig6(**_CHUNKED).points) == _per_set_points(**_CHUNKED)

    def test_one_simulation_per_chunk(self, monkeypatch):
        calls = []
        original = fig6_mod.simulate_job_set

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(fig6_mod, "simulate_job_set", counting)
        run_fig6(**_CHUNKED)
        assert len(calls) == 2

    def test_interrupted_journaled_sweep_resumes(self, tmp_path, monkeypatch):
        journal_dir = tmp_path / "journal"
        original = fig6_mod._fig6_chunk_points
        ran: list[tuple[int, ...]] = []

        def stop_after_first(task):
            if ran:
                raise KeyboardInterrupt
            ran.append(task.indices)
            return original(task)

        monkeypatch.setattr(fig6_mod, "_fig6_chunk_points", stop_after_first)
        with pytest.raises(KeyboardInterrupt):
            run_fig6(journal=CheckpointJournal(journal_dir), **_CHUNKED)
        assert ran == [tuple(range(fig6_mod.CHUNK_SETS))]

        def resumed(task):
            ran.append(task.indices)
            return original(task)

        monkeypatch.setattr(fig6_mod, "_fig6_chunk_points", resumed)
        result = run_fig6(journal=CheckpointJournal(journal_dir), **_CHUNKED)
        # Only the unfinished chunk ran again.
        assert ran[1:] == [tuple(range(fig6_mod.CHUNK_SETS, _CHUNKED["num_sets"]))]
        monkeypatch.setattr(fig6_mod, "_fig6_chunk_points", original)
        assert result == run_fig6(**_CHUNKED)


class TestTheorem1Driver:
    def test_rows(self):
        rows = run_theorem1(parallelisms=(5,), rates=(0.0, 0.2), num_quanta=12)
        abg_rows = [r for r in rows if r.policy.startswith("ABG")]
        ag_rows = [r for r in rows if r.policy == "A-Greedy"]
        assert len(abg_rows) == 2 and len(ag_rows) == 1
        for r in abg_rows:
            assert r.analytic_holds
            assert r.sim_steady_state_error < 0.05
            assert r.sim_overshoot < 0.05
        assert ag_rows[0].sim_oscillation > 1.0


class TestBoundsDriver:
    def test_all_bounds_hold(self):
        rows = run_bounds_check(factors=(2, 3), seed=5)
        assert rows, "bounds check produced no rows"
        for row in rows:
            assert row.holds, f"{row.experiment}/{row.scenario} violated"

    def test_slack_positive(self):
        rows = run_bounds_check(factors=(2,), seed=5)
        for row in rows:
            assert row.slack >= 1.0 or math.isinf(row.slack)

    def test_nonvacuous_theorem3_present(self):
        rows = run_bounds_check(factors=(2,), seed=5)
        ramped = [r for r in rows if r.scenario == "ramped-deprived"]
        assert any(
            r.experiment == "theorem3-time" and math.isfinite(r.bound) for r in ramped
        )


class TestAblations:
    def test_rate_rows(self):
        rows = run_rate_ablation(rates=(0.0, 0.4), factors=(5,), jobs_per_factor=2)
        assert [r.convergence_rate for r in rows] == [0.0, 0.4]
        for r in rows:
            assert r.time_norm >= 1.0

    def test_quantum_rows(self):
        rows = run_quantum_ablation(lengths=(500, 1000), factors=(5,), jobs_per_factor=2)
        assert len(rows) == 3  # 2 fixed + adaptive
        assert rows[-1].policy == "adaptive"

    def test_discipline_rows(self):
        rows = run_discipline_ablation(num_random_dags=2)
        disciplines = {r.discipline for r in rows}
        assert disciplines == {"breadth-first", "fifo", "lifo"}
        bf = [r for r in rows if r.discipline == "breadth-first"]
        for r in bf:
            assert r.max_span_efficiency <= 1.0 + 1e-9

    def test_allocator_rows(self):
        rows = run_allocator_ablation(num_sets=2, target_load=1.0)
        names = [r.allocator for r in rows]
        assert "dynamic equi-partitioning" in names
        assert "round-robin" in names
        deq = next(r for r in rows if "equi" in r.allocator)
        rr = next(r for r in rows if "round" in r.allocator)
        # non-reservation should not hurt makespan
        assert deq.makespan <= rr.makespan * 1.05


class TestConfidenceIntervals:
    def test_fig5_ratio_cis(self):
        result = run_fig5(factors=(5, 20, 60, 90), jobs_per_factor=4, seed=3)
        t_ci = result.time_ratio_ci()
        w_ci = result.waste_ratio_ci()
        assert t_ci.low <= result.mean_time_ratio <= t_ci.high
        assert w_ci.low <= result.mean_waste_ratio <= w_ci.high
        assert t_ci.low > 0.9  # ABG's advantage is not a fluke of the sample

    def test_fig6_makespan_ci(self):
        result = run_fig6(num_sets=8, load_range=(0.3, 3.0), seed=4)
        ci = result.makespan_ratio_ci()
        assert ci.low <= ci.point <= ci.high
        assert ci.confidence == 0.95
