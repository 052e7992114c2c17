"""Cross-validation of the batched level-major kernel against the reference
engine.

On every quantum of every counts-determined dag the batched kernel must
match the reference engine exactly on work, steps, finished flag,
per-level completion staircase and ready count, and — with recording on —
on the per-step task lists.  Span agrees to 1e-12: the closed form sums it
per chunk, the reference engine per step.  These tests drive both engines through
mixed, randomized quantum schedules and compare everything, including strict
mode and auditor replay of the recorded schedules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.abg import AControl
from repro.dag import builders
from repro.dag.structure import analyze_level_structure
from repro.engine import (
    BatchedDagExecutor,
    ExplicitExecutor,
    UnsupportedDagStructure,
    supports_batched,
)
from repro.sim.jobs import make_executor
from repro.sim.single import simulate_job
from repro.verify.auditor import audit_dag_schedule


def random_phases(rng: np.random.Generator) -> list[tuple[int, int]]:
    """A random fork-join phase list (serial/parallel alternation)."""
    phases: list[tuple[int, int]] = []
    for _ in range(int(rng.integers(2, 6))):
        phases.append((1, int(rng.integers(1, 5))))
        phases.append((int(rng.integers(2, 24)), int(rng.integers(1, 6))))
    return phases


def drive_both(dag, rng, *, strict=False, record=False, quanta=400):
    """Run both engines through one randomized quantum schedule, comparing
    every observable after every quantum."""
    ref = ExplicitExecutor(
        dag, "breadth-first", strict=strict, record_schedule=record
    )
    bat = BatchedDagExecutor(dag, strict=strict, record_schedule=record)
    for _ in range(quanta):
        if ref.finished:
            break
        assert bat.current_parallelism == ref.current_parallelism
        a = int(rng.integers(1, 40))
        steps = int(rng.integers(1, 15))
        r = ref.execute_quantum(a, steps)
        b = bat.execute_quantum(a, steps)
        assert (b.work, b.steps, b.finished) == (r.work, r.steps, r.finished)
        assert b.span == pytest.approx(r.span, abs=1e-12)
        assert np.array_equal(bat.completed_by_level(), ref.completed_by_level())
        assert bat.remaining_work == ref.remaining_work
    assert ref.finished and bat.finished
    return ref, bat


class TestCrossValidation:
    def test_builder_dags_quantum_for_quantum(self):
        rng = np.random.default_rng(101)
        dags = [
            builders.chain(12),
            builders.wide_level(9),
            builders.diamond(7),
            builders.figure2_fragment(),
            builders.fork_join(2, 5, 3, 2),
            builders.fork_join_from_phases([(1, 3), (4, 2), (1, 1), (8, 5)]),
        ]
        for dag in dags:
            for _ in range(3):
                drive_both(dag, rng)

    def test_random_fork_join_dags(self):
        rng = np.random.default_rng(202)
        for _ in range(15):
            dag = builders.fork_join_from_phases(random_phases(rng))
            drive_both(dag, rng)

    def test_strict_mode_clean_on_valid_runs(self):
        rng = np.random.default_rng(303)
        for _ in range(5):
            dag = builders.fork_join_from_phases(random_phases(rng))
            drive_both(dag, rng, strict=True)

    def test_recorded_schedules_identical_and_audit_clean(self):
        rng = np.random.default_rng(404)
        for _ in range(5):
            dag = builders.fork_join_from_phases(random_phases(rng))
            ref, bat = drive_both(dag, rng, record=True)
            assert bat.schedule == ref.schedule  # exact order, not just sets
            report = audit_dag_schedule(dag, bat.schedule, breadth_first=True)
            assert report.ok, report.violations

    def test_single_step_quanta(self):
        """steps=1 exercises every regime boundary one step at a time."""
        rng = np.random.default_rng(505)
        dag = builders.fork_join_from_phases([(2, 3), (9, 2), (2, 1), (17, 4)])
        ref = ExplicitExecutor(dag, "breadth-first", record_schedule=True)
        bat = BatchedDagExecutor(dag, record_schedule=True)
        while not ref.finished:
            a = int(rng.integers(1, 12))
            r = ref.execute_quantum(a, 1)
            b = bat.execute_quantum(a, 1)
            assert (b.work, b.steps, b.span) == (r.work, r.steps, pytest.approx(r.span))
        assert bat.finished
        assert bat.schedule == ref.schedule

    def test_simulate_job_auto_matches_reference(self):
        rng = np.random.default_rng(606)
        for _ in range(5):
            dag = builders.fork_join_from_phases(random_phases(rng))
            kwargs = dict(quantum_length=int(rng.integers(3, 60)))
            t_auto = simulate_job(dag, AControl(0.2), 32, **kwargs)
            t_ref = simulate_job(dag, AControl(0.2), 32, engine="reference", **kwargs)
            assert [
                (r.allotment, r.work, r.span, r.steps) for r in t_auto.records
            ] == [(r.allotment, r.work, r.span, r.steps) for r in t_ref.records]


class TestSelection:
    def test_supports_batched_on_builders(self):
        assert supports_batched(builders.chain(5))
        assert supports_batched(builders.fork_join(1, 4, 2, 3))
        assert supports_batched(builders.figure2_fragment())

    def test_rejects_non_level_major(self):
        rng = np.random.default_rng(1)
        dag = builders.random_layered(rng, num_levels=6, max_width=5)
        assert not supports_batched(dag)
        with pytest.raises(UnsupportedDagStructure):
            BatchedDagExecutor(dag)

    def test_rejects_non_breadth_first(self):
        dag = builders.fork_join(1, 4, 2, 3)
        assert not supports_batched(dag, "fifo")
        assert not supports_batched(dag, "lifo")

    def test_make_executor_auto_selection(self):
        dag = builders.fork_join(1, 4, 2, 3)
        rng = np.random.default_rng(2)
        layered = builders.random_layered(rng, num_levels=5, max_width=4)
        assert isinstance(make_executor(dag), BatchedDagExecutor)
        assert isinstance(make_executor(dag, engine="reference"), ExplicitExecutor)
        assert isinstance(make_executor(dag, engine="batched"), BatchedDagExecutor)
        # strict auto stays on the reference engine (per-decision checking)
        assert isinstance(make_executor(dag, strict=True), ExplicitExecutor)
        assert isinstance(make_executor(layered), ExplicitExecutor)
        assert isinstance(make_executor(dag, "fifo"), ExplicitExecutor)
        with pytest.raises(UnsupportedDagStructure):
            make_executor(layered, engine="batched")
        with pytest.raises(ValueError):
            make_executor(dag, engine="warp")  # type: ignore[arg-type]


def permuted_chain_dag(width: int, levels: int, seed: int):
    """Constant-width dag whose inter-level parent maps are random
    non-identity bijections — level-major but not rank-aligned."""
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for lvl in range(1, levels):
        pi = rng.permutation(width)
        if np.array_equal(pi, np.arange(width)):
            pi = np.roll(pi, 1)
        prev, cur = (lvl - 1) * width, lvl * width
        edges.extend((int(prev + pi[j]), int(cur + j)) for j in range(width))
    from repro.dag.graph import Dag

    return Dag(width * levels, edges)


class TestPermutedStructures:
    """The PR 5 lift: permuted-parent constant-width levels remain
    counts-determined (see the repro.dag.structure module docstring for the
    injectivity argument), so the batched kernel executes them — but
    schedule *recording* still requires rank alignment."""

    def test_level_major_but_not_rank_aligned(self):
        dag = permuted_chain_dag(4, 5, seed=1)
        s = analyze_level_structure(dag)
        assert s.level_major
        assert not s.rank_aligned
        assert s.segment_phases() == [(4, 5)]

    def test_identity_maps_stay_rank_aligned(self):
        # the same shape with identity parent maps is an ordinary chain run
        dag = builders.fork_join_from_phases([(4, 5)])
        s = analyze_level_structure(dag)
        assert s.level_major and s.rank_aligned

    def test_shared_parent_rejected(self):
        """A non-injective parent map is NOT counts-determined: completing
        one parent can enable two tasks."""
        from repro.dag.graph import Dag

        # width-2 levels; both level-2 tasks hang off task 0
        dag = Dag(4, [(0, 2), (0, 3)])
        s = analyze_level_structure(dag)
        assert not s.level_major

    def test_supports_batched_and_executes(self):
        dag = permuted_chain_dag(3, 6, seed=2)
        assert supports_batched(dag)
        BatchedDagExecutor(dag)  # does not raise

    def test_counts_match_reference_engine(self):
        rng = np.random.default_rng(707)
        for seed in range(4):
            dag = permuted_chain_dag(int(rng.integers(2, 8)), int(rng.integers(2, 9)), seed=seed)
            drive_both(dag, rng)

    def test_barrier_separated_permuted_segments(self):
        """Permuted segment, then a barrier into a second (chain) segment."""
        from repro.dag.graph import Dag

        # levels: [0,1,2] -> permuted -> [3,4,5] -> barrier -> [6,7] -> chain -> [8,9]
        edges = [(0, 4), (1, 5), (2, 3)]
        edges += [(p, h) for p in (3, 4, 5) for h in (6, 7)]
        edges += [(6, 8), (7, 9)]
        dag = Dag(10, edges)
        s = analyze_level_structure(dag)
        assert s.level_major and not s.rank_aligned
        assert s.segment_phases() == [(3, 2), (2, 2)]
        drive_both(dag, np.random.default_rng(808))

    def test_recording_rejected_on_permuted_structure(self):
        dag = permuted_chain_dag(4, 4, seed=3)
        with pytest.raises(UnsupportedDagStructure, match="rank-aligned"):
            BatchedDagExecutor(dag, record_schedule=True)
        # the reference engine records such dags fine
        ExplicitExecutor(dag, "breadth-first", record_schedule=True)

    def test_strict_mode_clean_on_permuted(self):
        rng = np.random.default_rng(909)
        drive_both(permuted_chain_dag(5, 5, seed=4), rng, strict=True)


class TestLevelStructure:
    def test_fork_join_segments_match_phases(self):
        phases = [(1, 3), (4, 2), (1, 1), (8, 5)]
        dag = builders.fork_join_from_phases(phases)
        s = analyze_level_structure(dag)
        assert s.level_major
        assert s.segment_phases() == phases

    def test_chain_is_one_segment(self):
        s = analyze_level_structure(builders.chain(6))
        assert s.level_major
        assert s.segment_phases() == [(1, 6)]

    def test_level_tasks_ascending_and_complete(self):
        dag = builders.fork_join_from_phases([(2, 2), (5, 3)])
        s = analyze_level_structure(dag)
        seen: list[int] = []
        for tasks in s.level_tasks:
            assert list(tasks) == sorted(tasks)
            seen.extend(int(t) for t in tasks)
        assert sorted(seen) == list(range(dag.num_tasks))

    def test_random_layered_rejected_with_reason(self):
        rng = np.random.default_rng(3)
        dag = builders.random_layered(rng, num_levels=6, max_width=5)
        s = analyze_level_structure(dag)
        assert not s.level_major
        assert s.reject_reason

    def test_structure_cached_on_dag(self):
        dag = builders.chain(4)
        assert dag.structure is dag.structure
