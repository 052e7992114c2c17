"""Cross-validation of the multi-job batched quantum kernel against the
serial per-job loop.

``simulate_job_set(..., batch="auto")`` packs every counts-determined active
job into the :class:`repro.sim.multi_batched.MultiBatchKernel` and executes
whole machine-wide quanta as array arithmetic; ``batch="off"`` is the
original per-job loop.  The kernel's claim is *bit-identical* results —
every trace, every :class:`QuantumRecord` field, the finished-trace dict
order, the feedback recurrences — on every workload, including mid-run
releases, mid-quantum completions, reallocation overhead, strict mode,
mixed batchable/fallback sets, and the permuted-chain dags PR 5 lifted into
eligibility.  These tests run both backends over randomized job sets and
compare everything, then check the figure-6 driver end to end.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.allocators.hierarchical import HierarchicalAllocator
from repro.allocators.roundrobin import RoundRobinAllocator
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.overhead import ReallocationOverhead
from repro.core.feedback import FeedbackPolicy
from repro.core.reference import FixedRequest, OracleFeedback
from repro.dag import builders
from repro.dag.graph import Dag
from repro.engine.phased import PhasedExecutor, PhasedJob
from repro.sim import sharded
from repro.sim.jobs import JobSpec, closed_form_phases, make_executor
from repro.sim.multi import simulate_job_set


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def permuted_chain_dag(width: int, levels: int, seed: int) -> Dag:
    """A constant-width dag whose inter-level parent maps are random
    *non-identity* bijections: level-major (counts-determined) but not
    rank-aligned — the structure PR 5 lifted into kernel eligibility."""
    assert width >= 2
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for lvl in range(1, levels):
        pi = rng.permutation(width)
        if np.array_equal(pi, np.arange(width)):
            pi = np.roll(pi, 1)
        prev, cur = (lvl - 1) * width, lvl * width
        edges.extend((int(prev + pi[j]), int(cur + j)) for j in range(width))
    return Dag(width * levels, edges)


def assert_results_identical(a, b) -> None:
    """Byte-for-byte equality of two MultiJobResult objects: same trace dict
    order, same records (every QuantumRecord field, floats included), same
    bookkeeping."""
    assert list(a.traces) == list(b.traces)  # insertion order, not just keys
    assert a.processors == b.processors
    assert a.quantum_length == b.quantum_length
    assert a.quanta_elapsed == b.quanta_elapsed
    assert a.released == b.released
    for jid in a.traces:
        ta, tb = a.traces[jid], b.traces[jid]
        assert (ta.release_time, ta.job_id, ta.quantum_length) == (
            tb.release_time,
            tb.job_id,
            tb.quantum_length,
        )
        assert ta.records == tb.records


def run_both(make_specs, processors, *, allocator=DynamicEquiPartitioning, **kwargs):
    """Run one job set through both backends (fresh specs/policies/allocator
    per run — DEQ's rotation counter is stateful) and assert identity."""
    off = simulate_job_set(
        make_specs(), allocator(), processors, batch="off", **kwargs
    )
    auto = simulate_job_set(
        make_specs(), allocator(), processors, batch="auto", **kwargs
    )
    assert_results_identical(off, auto)
    return auto


def random_phased_job(rng: np.random.Generator) -> PhasedJob:
    phases: list[tuple[int, int]] = []
    for _ in range(int(rng.integers(1, 4))):
        phases.append((1, int(rng.integers(1, 6))))
        phases.append((int(rng.integers(2, 10)), int(rng.integers(1, 6))))
    return PhasedJob(phases)


class ScalarOnly(FeedbackPolicy):
    """A-Control's recurrence with no array form: ``next_request_batch`` is
    the base's."""

    def next_request(self, prev):
        return AControl(0.2).next_request(prev)


# ---------------------------------------------------------------------------
# closed_form_phases: which jobs the kernel may take
# ---------------------------------------------------------------------------


class TestSegmentProfile:
    def test_phased_job_always_profiled(self):
        job = PhasedJob([(1, 3), (5, 2)])
        assert closed_form_phases(job) == ((1, 3), (5, 2))
        # strict mode keeps phased jobs on the (closed-form) phased engine
        assert closed_form_phases(job, strict=True) == ((1, 3), (5, 2))

    def test_auto_level_major_dag_profiled(self):
        dag = builders.fork_join_from_phases([(1, 2), (4, 3)])
        assert closed_form_phases(dag) == ((1, 2), (4, 3))

    def test_auto_strict_dag_not_profiled(self):
        """strict auto dags stay on the reference engine (per-decision
        checking), so the kernel must not take them."""
        dag = builders.fork_join_from_phases([(1, 2), (4, 3)])
        assert closed_form_phases(dag, strict=True) is None

    def test_reference_engine_not_profiled(self):
        dag = builders.fork_join_from_phases([(1, 2), (4, 3)])
        assert closed_form_phases(dag, engine="reference") is None

    def test_non_breadth_first_not_profiled(self):
        dag = builders.fork_join_from_phases([(1, 2), (4, 3)])
        assert closed_form_phases(dag, "fifo") is None

    def test_non_level_major_not_profiled(self):
        rng = np.random.default_rng(11)
        layered = builders.random_layered(rng, num_levels=6, max_width=5)
        assert closed_form_phases(layered) is None
        # engine="batched" on an unsupported dag defers to the fallback
        # path, which raises the canonical error at admission
        assert closed_form_phases(layered, engine="batched") is None

    def test_engine_batched_level_major_profiled(self):
        dag = builders.fork_join_from_phases([(3, 4)])
        assert closed_form_phases(dag, engine="batched") == ((3, 4),)

    def test_permuted_chain_dag_profiled(self):
        """Permuted-parent constant-width levels stay counts-determined, so
        the kernel takes them under engine='auto'."""
        dag = permuted_chain_dag(4, 5, seed=3)
        assert dag.structure.level_major and not dag.structure.rank_aligned
        assert closed_form_phases(dag) == ((4, 5),)

    def test_agrees_with_make_executor(self):
        """Phases exactly when make_executor builds a closed-form engine."""
        rng = np.random.default_rng(12)
        jobs = [
            PhasedJob([(1, 3), (5, 2)]),
            builders.fork_join_from_phases([(1, 2), (4, 3)]),
            permuted_chain_dag(4, 5, seed=3),
            builders.random_layered(rng, num_levels=6, max_width=5),
        ]
        for job in jobs:
            for discipline in ("breadth-first", "fifo"):
                for strict in (False, True):
                    for engine in ("auto", "reference"):
                        phases = closed_form_phases(
                            job, discipline, strict=strict, engine=engine
                        )
                        ex = make_executor(
                            job, discipline, strict=strict, engine=engine
                        )
                        assert (phases is not None) == isinstance(ex, PhasedExecutor)


class TestBatchArgument:
    def test_unknown_batch_mode_rejected(self):
        specs = [JobSpec(job=PhasedJob([(1, 1)]), feedback=AControl())]
        with pytest.raises(ValueError, match="unknown batch mode"):
            simulate_job_set(
                specs, DynamicEquiPartitioning(), 8, batch="always"
            )


# ---------------------------------------------------------------------------
# Bit-identity of batch="auto" vs batch="off"
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_random_phased_sets(self):
        for seed in range(8):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 9))
            jobs = [random_phased_job(rng) for _ in range(n)]
            releases = [int(rng.integers(0, 60)) for _ in range(n)]
            ql = int(rng.integers(5, 40))

            def make_specs():
                policy = AControl(0.2)
                return [
                    JobSpec(job=j, feedback=policy, release_time=r)
                    for j, r in zip(jobs, releases)
                ]

            run_both(make_specs, 32, quantum_length=ql)

    def test_wide_set_exercises_vector_loop(self):
        """More than _VECTOR_MIN live slots so the masked vector iterations
        (not just the scalar tail) execute."""
        rng = np.random.default_rng(42)
        jobs = [random_phased_job(rng) for _ in range(20)]

        def make_specs():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_both(make_specs, 64, quantum_length=25)

    def test_agreedy_policy(self):
        rng = np.random.default_rng(5)
        jobs = [random_phased_job(rng) for _ in range(6)]

        def make_specs():
            policy = AGreedy()
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_both(make_specs, 32, quantum_length=20)

    def test_mid_quantum_completions(self):
        """Jobs far shorter than the quantum: every job finishes mid-quantum
        and its final record carries steps < L."""
        jobs = [PhasedJob([(1, 2), (3, 2)]), PhasedJob([(2, 3)]), PhasedJob([(1, 1)])]

        def make_specs():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        result = run_both(make_specs, 16, quantum_length=500)
        for trace in result.traces.values():
            assert trace.records[-1].steps < 500

    def test_release_gaps_and_boundary_joins(self):
        jobs = [PhasedJob([(1, 10)]), PhasedJob([(4, 30)]), PhasedJob([(2, 15)])]
        releases = [0, 120, 50]  # includes an idle gap before job 1 joins

        def make_specs():
            policy = AControl(0.2)
            return [
                JobSpec(job=j, feedback=policy, release_time=r)
                for j, r in zip(jobs, releases)
            ]

        run_both(make_specs, 8, quantum_length=50)

    def test_reallocation_overhead(self):
        rng = np.random.default_rng(9)
        jobs = [random_phased_job(rng) for _ in range(5)]
        overhead = ReallocationOverhead(per_processor=0.5, fixed=3)

        def make_specs():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        result = run_both(make_specs, 16, quantum_length=15, overhead=overhead)
        # overhead actually charged somewhere (allotments do change under DEQ)
        assert any(
            r.work < r.allotment * r.steps
            for t in result.traces.values()
            for r in t.records
        )

    def test_strict_mode(self):
        rng = np.random.default_rng(13)
        jobs = [random_phased_job(rng) for _ in range(5)]
        dags = [builders.fork_join_from_phases([(1, 2), (5, 3)])]

        def make_specs():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs + dags]

        run_both(make_specs, 24, quantum_length=20, strict=True)

    def test_mixed_eligible_and_fallback(self):
        """Kernel slots and per-job fallback executors interleaved in the
        same quanta: phased jobs + auto dags (batched) alongside reference
        dags and non-level-major dags (fallback)."""
        rng = np.random.default_rng(21)
        phased = [random_phased_job(rng) for _ in range(3)]
        fj = builders.fork_join_from_phases([(1, 2), (6, 3), (1, 1)])
        layered = builders.random_layered(rng, num_levels=5, max_width=4)
        perm = permuted_chain_dag(3, 4, seed=8)

        def make_specs():
            policy = AControl(0.2)
            specs = [JobSpec(job=j, feedback=policy) for j in phased]
            specs.append(JobSpec(job=fj, feedback=policy, engine="reference"))
            specs.append(JobSpec(job=layered, feedback=policy))  # auto -> reference
            specs.append(JobSpec(job=fj, feedback=policy))  # auto -> kernel
            specs.append(JobSpec(job=perm, feedback=policy))  # lifted -> kernel
            return specs

        run_both(make_specs, 32, quantum_length=25)

    def test_permuted_chain_only_set(self):
        def make_specs():
            policy = AControl(0.2)
            return [
                JobSpec(job=permuted_chain_dag(w, k, seed=w * 10 + k), feedback=policy)
                for w, k in [(2, 6), (4, 3), (5, 5), (3, 8)]
            ]

        run_both(make_specs, 16, quantum_length=7)

    def test_mixed_policy_instances(self):
        """Per-job policy objects (no shared instance, FixedRequest among
        them) exercise the grouped feedback path: one batch call per
        instance, each over its own gathered positions."""
        rng = np.random.default_rng(33)
        jobs = [random_phased_job(rng) for _ in range(6)]

        def make_specs():
            policies = [
                AControl(0.2),
                AControl(0.5),
                AGreedy(),
                AGreedy(4.0, 0.6),
                FixedRequest(3),
                AControl(0.2),
            ]
            return [JobSpec(job=j, feedback=p) for j, p in zip(jobs, policies)]

        run_both(make_specs, 32, quantum_length=20)

    @pytest.mark.parametrize("mixed", [False, True], ids=["alone", "mixed"])
    @pytest.mark.parametrize(
        "allocator",
        [DynamicEquiPartitioning, lambda: HierarchicalAllocator(4)],
        ids=["deq", "hierarchical"],
    )
    def test_policy_without_array_form_runs_serial(self, allocator, mixed, monkeypatch):
        """A policy that does not override next_request_batch, alone or
        among array-form policies, sends its set to the serial loop: the
        windowed loop is never entered and the traces equal batch='off'."""

        def refuse(*args, **kwargs):
            raise AssertionError("a policy with no array form reached the windowed loop")

        monkeypatch.setattr(sharded, "simulate_windowed", refuse)
        rng = np.random.default_rng(29)
        jobs = [random_phased_job(rng) for _ in range(8)]

        def make_specs():
            scalar, batched = ScalarOnly(), AControl(0.2)
            return [
                JobSpec(job=j, feedback=batched if mixed and i % 2 else scalar)
                for i, j in enumerate(jobs)
            ]

        run_both(make_specs, 16, allocator=allocator, quantum_length=10)

    def test_policy_without_array_form_rejected_on_per_group_windows(self):
        """Per-group windows name the policy instead of running it: the
        clairvoyant oracle over a counter source gave different traces from
        batch='off' in every job when the windowed loop fed it."""
        counter = itertools.count()
        policy = OracleFeedback(lambda: float(next(counter) % 7 + 1))
        specs = [
            JobSpec(job=PhasedJob([(1, 20 + 3 * i), (6, 40)]), feedback=policy)
            for i in range(12)
        ]
        with pytest.raises(ValueError, match=r"\(OracleFeedback has none\)"):
            simulate_job_set(specs, HierarchicalAllocator(4), 16, quantum_length=10, shards=2)

    def test_roundrobin_allocator_dict_path(self):
        """RoundRobinAllocator has no allocate_batch: the kernel run takes
        the mapping allocation path and must still be identical."""
        rng = np.random.default_rng(55)
        jobs = [random_phased_job(rng) for _ in range(5)]

        def make_specs():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_both(make_specs, 16, allocator=RoundRobinAllocator, quantum_length=15)

    def test_all_fallback_set(self):
        """batch='auto' with zero batchable jobs degenerates to the serial
        loop exactly."""
        rng = np.random.default_rng(77)
        layered = [
            builders.random_layered(rng, num_levels=4, max_width=4)
            for _ in range(3)
        ]

        def make_specs():
            policy = AControl(0.2)
            return [JobSpec(job=d, feedback=policy) for d in layered]

        run_both(make_specs, 16, quantum_length=12)

    def test_single_step_quanta(self):
        """quantum_length=1 hits every chunk/regime boundary one machine
        step at a time."""
        jobs = [PhasedJob([(1, 3), (4, 2)]), PhasedJob([(3, 4)])]

        def make_specs():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_both(make_specs, 8, quantum_length=1)


# ---------------------------------------------------------------------------
# End-to-end: the figure-6 driver is invariant under the backend switch
# ---------------------------------------------------------------------------


class TestFig6Driver:
    def test_fig6_results_identical_with_batching_off(self, monkeypatch):
        from repro.experiments import fig6 as fig6_mod

        kwargs = dict(
            num_sets=3,
            load_range=(0.3, 2.0),
            processors=32,
            quantum_length=200,
            workers=1,
            seed=424242,
        )
        res_auto = fig6_mod.run_fig6(**kwargs)

        orig = fig6_mod.simulate_job_set

        def forced_off(*args, **kw):
            kw["batch"] = "off"
            return orig(*args, **kw)

        monkeypatch.setattr(fig6_mod, "simulate_job_set", forced_off)
        res_off = fig6_mod.run_fig6(**kwargs)
        # frozen dataclasses: field-for-field (float-exact) equality
        assert res_auto == res_off

    def test_group_size_csv_identical_with_batching_off(self, tmp_path, monkeypatch):
        """``fig6 --group-size``: hierarchical sets on the windowed loop
        write the serial reference loop's CSV byte for byte."""
        from repro.experiments import fig6 as fig6_mod
        from repro.report import write_csv

        def sweep_csv(name):
            result = fig6_mod.run_fig6(
                num_sets=2, load_range=(2.0, 6.0), processors=32,
                quantum_length=200, workers=1, seed=911, group_size=8,
            )
            return write_csv(list(result.points), tmp_path / name).read_bytes()

        windowed = sweep_csv("windowed.csv")
        orig = fig6_mod.simulate_job_set
        monkeypatch.setattr(
            fig6_mod, "simulate_job_set", lambda *a, **kw: orig(*a, batch="off", **kw)
        )
        assert sweep_csv("serial.csv") == windowed
