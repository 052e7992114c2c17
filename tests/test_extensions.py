"""Tests for the extension modules: arrivals, characteristics, bootstrap
statistics, timelines, and their experiment drivers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.characteristics import job_structure_characteristics
from repro.core.abg import AControl
from repro.engine.phased import PhasedJob
from repro.experiments import run_arrivals, run_characteristics_study
from repro.report.timeline import allotment_strip
from repro.sim.single import simulate_job
from repro.sim.stats import bootstrap_ci
from repro.workloads.arrivals import poisson_releases, staggered_releases


class TestArrivalGenerators:
    def test_poisson_first_at_zero_sorted(self, rng):
        times = poisson_releases(rng, 20, 100.0)
        assert times[0] == 0
        assert times == sorted(times)
        assert len(times) == 20

    def test_poisson_mean_roughly_matches(self):
        rng = np.random.default_rng(0)
        times = poisson_releases(rng, 2000, 50.0)
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(50.0, rel=0.15)

    def test_staggered(self):
        assert staggered_releases(4, 10) == [0, 10, 20, 30]

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            poisson_releases(rng, 0, 10.0)
        with pytest.raises(ValueError):
            poisson_releases(rng, 2, 0.0)
        with pytest.raises(ValueError):
            staggered_releases(2, -1)

    def test_poisson_deterministic_under_fixed_seed(self):
        a = poisson_releases(np.random.default_rng(1234), 50, 75.0)
        b = poisson_releases(np.random.default_rng(1234), 50, 75.0)
        assert a == b
        assert a != poisson_releases(np.random.default_rng(4321), 50, 75.0)

    def test_poisson_nonfinite_rate_rejected(self, rng):
        with pytest.raises(ValueError, match="positive finite"):
            poisson_releases(rng, 3, float("nan"))
        with pytest.raises(ValueError, match="positive finite"):
            poisson_releases(rng, 3, float("inf"))
        with pytest.raises(ValueError, match="positive finite"):
            poisson_releases(rng, 3, -1.0)

    def test_staggered_zero_gap_all_at_release_zero(self):
        assert staggered_releases(3, 0) == [0, 0, 0]


class TestArrivalsExperiment:
    def test_rows_and_theorem5(self):
        rows = run_arrivals(interarrivals=(1000.0, 4000.0), jobs_per_set=4, seed=3)
        assert len(rows) == 2
        for row in rows:
            assert row.abg_makespan_norm >= 1.0 - 1e-9
            assert row.theorem5_holds
            assert row.makespan_ratio > 0.9  # ABG not worse


class TestCharacteristics:
    def test_constant_profile(self):
        job = PhasedJob([(5, 10)])
        c = job_structure_characteristics(job)
        assert c.transition_factor == 5.0  # vs A(0)=1
        assert c.change_frequency == 0.0
        assert c.variance == 0.0
        assert c.mean == 5.0

    def test_alternating_profile(self):
        job = PhasedJob([(1, 2), (9, 2)])
        c = job_structure_characteristics(job)
        assert c.transition_factor == 9.0
        assert c.change_frequency == pytest.approx(1 / 3)
        assert c.coefficient_of_variation > 0.5

    def test_study_driver_trends(self):
        rows = run_characteristics_study(quantum_length=500)
        by_name = {r.workload: r for r in rows}
        # higher transition factor -> A-Greedy degrades more than ABG
        assert (
            by_name["factor-64"].agreedy_time_norm
            > by_name["factor-4"].agreedy_time_norm
        )
        # more frequent changes hurt both schedulers
        assert by_name["freq-12"].abg_time_norm > by_name["freq-2"].abg_time_norm
        # change frequency is actually varied by the workload
        assert (
            by_name["freq-12"].change_frequency
            > by_name["freq-2"].change_frequency
        )
        # spread matters at fixed change count
        assert (
            by_name["spread-high"].abg_waste_norm
            > by_name["spread-low"].abg_waste_norm
        )


class TestBootstrap:
    def test_point_is_mean(self):
        ci = bootstrap_ci([1.0, 2.0, 3.0], resamples=200)
        assert ci.point == pytest.approx(2.0)
        assert ci.low <= ci.point <= ci.high

    def test_interval_contains_truth_for_large_sample(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(5.0, 1.0, size=400)
        ci = bootstrap_ci(sample, rng=np.random.default_rng(2))
        assert 5.0 in ci
        assert ci.width < 0.5

    def test_singleton_sample(self):
        ci = bootstrap_ci([4.0])
        assert ci.low == ci.high == ci.point == 4.0

    def test_custom_statistic(self):
        ci = bootstrap_ci([1.0, 100.0], statistic=lambda a: float(np.median(a)))
        assert ci.low <= ci.point <= ci.high

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=0)

    def test_str(self):
        assert "95%" in str(bootstrap_ci([1.0, 2.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40))
    def test_interval_brackets_point(self, sample):
        ci = bootstrap_ci(sample, resamples=100)
        assert ci.low <= ci.point + 1e-9
        assert ci.high >= ci.point - 1e-9


class TestTimeline:
    def _trace(self):
        return simulate_job(
            PhasedJob([(1, 60), (8, 60)]), AControl(0.2), 32, quantum_length=30
        )

    def test_allotment_strip_rows(self):
        strip = allotment_strip(self._trace())
        assert "request d(q)" in strip
        assert "allotment a(q)" in strip
        assert "parallelism A(q)" in strip

    def test_truncation_notice(self):
        trace = self._trace()
        text = allotment_strip(trace, max_quanta=1)
        assert "more quanta" in text

    def test_empty_trace_rejected(self):
        from repro.core.types import JobTrace

        with pytest.raises(ValueError):
            allotment_strip(JobTrace(quantum_length=10))


class TestCliNewCommands:
    def test_arrivals(self, capsys):
        from repro.cli import main

        assert main(["arrivals"]) == 0
        assert "theorem5_holds" in capsys.readouterr().out

    def test_characteristics(self, capsys):
        from repro.cli import main

        assert main(["characteristics"]) == 0
        assert "change_frequency" in capsys.readouterr().out
