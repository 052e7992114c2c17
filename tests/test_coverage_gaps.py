"""Final coverage pass: remaining public behaviors not exercised elsewhere."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.analysis.characteristics import job_structure_characteristics
from repro.core.abg import AControl
from repro.engine.phased import PhasedJob
from repro.experiments.common import ExperimentTable, format_table
from repro.sim.single import simulate_job


class TestExperimentTable:
    def test_to_records(self):
        t = ExperimentTable(title="t", columns=("a",), rows=({"a": 1}, {"a": 2}))
        assert t.to_records() == [{"a": 1}, {"a": 2}]

    def test_cell_with_dataclass(self):
        from dataclasses import dataclass

        @dataclass
        class Row:
            a: int

        t = ExperimentTable(title="t", columns=("a",), rows=(Row(5),))
        assert t.cell(t.rows[0], "a") == 5

    def test_empty_table_renders_header(self):
        t = ExperimentTable(title="empty", columns=("x", "y"), rows=())
        text = format_table(t)
        assert "x" in text and "y" in text


class TestDEQOrderIndependence:
    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 30), st.integers(1, 50), min_size=2, max_size=8),
        st.integers(10, 100),
    )
    def test_allocation_independent_of_insertion_order(self, requests, total):
        """DEQ must depend only on (job id, request), not on dict ordering."""
        a1 = DynamicEquiPartitioning().allocate(requests, total)
        reversed_requests = dict(reversed(list(requests.items())))
        a2 = DynamicEquiPartitioning().allocate(reversed_requests, total)
        assert a1 == a2


class TestCharacteristicsEdgeCases:
    def test_nonpositive_profile_rejected(self):
        from repro.analysis.characteristics import _characterize

        with pytest.raises(ValueError):
            _characterize(np.array([]))
        with pytest.raises(ValueError):
            _characterize(np.array([1.0, 0.0]))

    def test_structure_vs_trace_consistency(self):
        """On an unconstrained run the measured transition factor cannot
        exceed the structural one by more than quantum-blending allows."""
        job = PhasedJob([(1, 2500), (10, 2500)])
        structural = job_structure_characteristics(job)
        trace = simulate_job(job, AControl(0.2), 64, quantum_length=1000)
        assert trace.measured_transition_factor() <= structural.transition_factor + 1e-9


class TestCliRemainingCommands:
    @pytest.mark.parametrize(
        "command",
        ["ablation-rate", "ablation-quantum", "ablation-allocator", "overhead",
         "controllers", "trim", "characteristics"],
    )
    def test_command_produces_table(self, command, capsys):
        from repro.cli import main

        assert main([command]) == 0
        out = capsys.readouterr().out
        assert "—" in out or "-" in out
        assert len(out.splitlines()) > 3


class TestTraceJsonStability:
    def test_serialized_trace_is_stable_across_runs(self, tmp_path):
        """Same seed + same job => byte-identical JSON artifacts (the
        determinism guarantee users rely on for archived results)."""
        from repro.io.traces import save_trace

        job = PhasedJob([(1, 60), (7, 80)])
        p1 = save_trace(
            simulate_job(job, AControl(0.2), 16, quantum_length=25), tmp_path / "a.json"
        )
        p2 = save_trace(
            simulate_job(job, AControl(0.2), 16, quantum_length=25), tmp_path / "b.json"
        )
        assert p1.read_text() == p2.read_text()


class TestStealStatsAccessors:
    def test_zero_attempt_rate(self):
        from repro.stealing.executor import StealStats

        assert StealStats().steal_success_rate == 0.0

    def test_rate_math(self):
        from repro.stealing.executor import StealStats

        s = StealStats(steal_attempts=10, successful_steals=3)
        assert s.steal_success_rate == pytest.approx(0.3)
