"""Canonical benchmark scenarios for the perf-baseline harness.

Each scenario is a deterministic, self-contained workload exercising one
hot path of the codebase (the reference engine, the batched kernel, the
closed-form phased engine, the full adaptive simulation loop, and the two
headline sweeps).  A scenario returns the number of *work units* it
processed — scheduler steps for the engine scenarios, simulations for the
sweeps — so the harness can report a units/second throughput alongside the
wall time.

Two sizes exist per scenario: ``"smoke"`` (seconds-fast, used by CI and the
test suite) and ``"default"`` (the committed-baseline scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from ..workloads.giant import GiantScenario

import numpy as np

from ..allocators.equipartition import DynamicEquiPartitioning
from ..core.abg import AControl
from ..dag.builders import fork_join_from_phases
from ..dag.graph import Dag
from ..engine.batched import BatchedDagExecutor
from ..engine.explicit import ExplicitExecutor
from ..engine.phased import Phase, PhasedExecutor, PhasedJob
from ..experiments.fig5 import run_fig5
from ..experiments.fig6 import run_fig6
from ..sim.jobs import JobSpec
from ..sim.multi import BatchChoice, SuperstepChoice, simulate_job_set
from ..sim.single import simulate_job
from ..workloads.jobsets import JobSetGenerator

__all__ = ["Scenario", "SCENARIOS", "scenario_names", "BENCH_SCALES"]

BENCH_SCALES = ("smoke", "default")

#: (width, span) phases of the canonical fork-join benchmark job, per scale.
_PHASES = {
    "smoke": [(1, 100), (32, 100), (1, 100), (32, 100)],
    "default": [(1, 400), (32, 400), (1, 400), (32, 400)],
}


#: The canonical dag per scale, built once: the engine scenarios measure
#: *execution* (a warm dag with cached derived structure, as in a sweep
#: re-running one job), not graph construction.
_DAG_CACHE: dict[str, Dag] = {}


def _bench_dag(scale: str) -> Dag:
    if scale not in _DAG_CACHE:
        _DAG_CACHE[scale] = fork_join_from_phases(_PHASES[scale])  # abg: allow[ABG201] reason=pure memoization: the cached dag is a deterministic function of `scale`, so every process computes the identical value and worker count cannot change any result
    return _DAG_CACHE[scale]


def _drive_executor(executor: ExplicitExecutor | BatchedDagExecutor | PhasedExecutor) -> int:
    steps = 0
    while not executor.finished:
        steps += executor.execute_quantum(16, 50).steps
    return steps


def _explicit_reference(scale: str) -> int:
    """Reference heap engine, breadth-first, on the canonical fork-join dag."""
    return _drive_executor(ExplicitExecutor(_bench_dag(scale), "breadth-first"))


def _explicit_fifo(scale: str) -> int:
    """Reference engine's FIFO (plain greedy) deque path on the same dag."""
    return _drive_executor(ExplicitExecutor(_bench_dag(scale), "fifo"))


def _batched_kernel(scale: str) -> int:
    """Batched level-major kernel on the same dag (same quanta, same numbers)."""
    return _drive_executor(BatchedDagExecutor(_bench_dag(scale)))


def _phased_closed_form(scale: str) -> int:
    """Closed-form phased engine on the equivalent phase list."""
    job = PhasedJob(tuple(Phase(w, s) for w, s in _PHASES[scale]))
    return _drive_executor(PhasedExecutor(job))


def _simulate_abg(scale: str) -> int:
    """Full adaptive loop: ABG feedback driving the auto-selected engine."""
    trace = simulate_job(
        _bench_dag(scale), AControl(0.2), 64, quantum_length=100
    )
    return int(trace.running_time)


def _fig5_sweep(scale: str) -> int:
    """Figure 5 driver at a pinned micro scale (generation + simulation)."""
    jobs = 2 if scale == "smoke" else 6
    result = run_fig5(factors=(5, 20), jobs_per_factor=jobs)
    return 2 * jobs * len(result.points)


def _fig6_sweep(scale: str) -> int:
    """Figure 6 driver at a pinned micro scale (DEQ multiprogramming)."""
    sets = 2 if scale == "smoke" else 6
    result = run_fig6(num_sets=sets)
    return 2 * len(result.points)


#: Deterministic saturated fig6-style job sets per scale, generated once:
#: the multiprogrammed scenarios measure the quantum loop, not workload
#: generation.  Load 24 on P=128 keeps ~3/4 of the DEQ job cap active for
#: most of the run — the regime the batched kernel exists for.
_MULTI_SET_CACHE: dict[str, list] = {}


def _multi_sets(scale: str) -> list:
    if scale not in _MULTI_SET_CACHE:
        rng = np.random.default_rng(314159)
        gen = JobSetGenerator(processors=128)
        count = 1 if scale == "smoke" else 3
        _MULTI_SET_CACHE[scale] = [gen.generate(rng, target_load=24.0) for _ in range(count)]  # abg: allow[ABG201] reason=pure memoization: the cached job sets are a deterministic function of `scale` (fixed seed), so every process computes the identical value and worker count cannot change any result
    return _MULTI_SET_CACHE[scale]


def _run_multi(scale: str, batch: BatchChoice) -> int:
    """Drive the multiprogrammed DEQ loop over the canonical saturated sets;
    units are job-quanta executed (records produced).

    Superstep fast-forwarding is pinned *off*: these two scenarios gate the
    per-quantum execution paths themselves (the saturated DEQ rotation keeps
    the allocation off its fixed point most of the run anyway, so supersteps
    would only blur the measurement, not speed it up).
    """
    total = 0
    for sample in _multi_sets(scale):
        policy = AControl(0.2)  # one shared instance, as the fig6 driver does
        specs = [JobSpec(job=job, feedback=policy) for job in sample.jobs]
        result = simulate_job_set(
            specs, DynamicEquiPartitioning(), 128, batch=batch, superstep="off"
        )
        total += sum(len(t) for t in result.traces.values())
    return total


def _multi_serial(scale: str) -> int:
    """Multiprogrammed quantum loop, serial per-job executors (``batch="off"``)."""
    return _run_multi(scale, "off")


def _multi_batched(scale: str) -> int:
    """Multiprogrammed quantum loop through the batched kernel (``batch="auto"``)."""
    return _run_multi(scale, "auto")


#: (width, levels) of the stable-allocation superstep workload per scale:
#: every job's request is satisfiable on P=128, so A-Control reaches its
#: bitwise fixed point within a few quanta and the DEQ waterfall stops
#: rotating — the regime the superstep layer fast-forwards.
_STABLE_JOBS = {
    "smoke": [(8 + i, 600_000) for i in range(8)],
    "default": [(8 + i, 2_000_000) for i in range(8)],
}


def _run_stable(scale: str, superstep: SuperstepChoice) -> int:
    """Drive the stable-allocation workload with fast-forwarding on or off;
    units are job-quanta covered (identical either way by construction)."""
    policy = AControl(0.2)
    specs = [
        JobSpec(job=PhasedJob([(w, levels)]), feedback=policy)
        for w, levels in _STABLE_JOBS[scale]
    ]
    result = simulate_job_set(
        specs,
        DynamicEquiPartitioning(),
        128,
        quantum_length=1000,
        superstep=superstep,
    )
    return sum(len(t) for t in result.traces.values())


def _multi_superstep(scale: str) -> int:
    """Stable-allocation loop with multi-quantum fast-forwarding (``"auto"``)."""
    return _run_stable(scale, "auto")


def _multi_superstep_off(scale: str) -> int:
    """Same workload forced per-quantum — the denominator of the superstep
    speedup recorded in the committed baselines."""
    return _run_stable(scale, "off")


def _run_hier(scale: str, batch: BatchChoice) -> int:
    """Multiprogrammed loop under the hierarchical allocator (one
    machine-wide window, no sharding): gates the grouped waterfall + rebalancing cost against
    the centralized DEQ scenarios on the identical saturated job sets."""
    from ..allocators.hierarchical import HierarchicalAllocator

    total = 0
    for sample in _multi_sets(scale):
        policy = AControl(0.2)
        specs = [JobSpec(job=job, feedback=policy) for job in sample.jobs]
        result = simulate_job_set(
            specs,
            HierarchicalAllocator(group_size=32, rebalance_interval=50),
            128,
            batch=batch,
            superstep="off",
        )
        total += sum(len(t) for t in result.traces.values())
    return total


def _multi_hier(scale: str) -> int:
    """Hierarchical allocation through the batched kernel (``batch="auto"``)."""
    return _run_hier(scale, "auto")


def _multi_hier_serial(scale: str) -> int:
    """Hierarchical allocation, serial per-job executors (``batch="off"``)."""
    return _run_hier(scale, "off")


#: The giant-scale scenario per bench scale, materialized once (pure
#: function of the scale).  Default is the headline configuration from the
#: sharding work: 4096 jobs on P=16385 across 32 allocation groups.
_GIANT_CACHE: dict[str, "GiantScenario"] = {}


def _giant(scale: str) -> "GiantScenario":
    from ..workloads.giant import giant_scenario

    if scale not in _GIANT_CACHE:
        if scale == "smoke":
            _GIANT_CACHE[scale] = giant_scenario(groups=8, jobs_per_group=32, stable_quanta=100, rebalance_interval=100)  # abg: allow[ABG201] reason=pure memoization: the cached scenario is a deterministic function of `scale`, so every process computes the identical value and worker count cannot change any result
        else:
            _GIANT_CACHE[scale] = giant_scenario()  # abg: allow[ABG201] reason=pure memoization: the cached scenario is a deterministic function of `scale`, so every process computes the identical value and worker count cannot change any result
    return _GIANT_CACHE[scale]


def _run_giant(scale: str, shards: int | None) -> int:
    """Drive the giant-scale workload in one in-process machine-wide window
    (``shards=None``) or through per-group windows on shard workers; units are job-quanta covered (byte-identical
    either way — the recorded seconds are the sharding speedup evidence)."""
    sc = _giant(scale)
    result = simulate_job_set(
        sc.specs,
        sc.build_allocator(),
        sc.processors,
        quantum_length=sc.quantum_length,
        shards=shards,
    )
    return sum(len(t) for t in result.traces.values())


def _multi_giant_flat(scale: str) -> int:
    """Giant-scale workload in one machine-wide window (the denominator
    of the sharding speedup recorded in the committed baselines)."""
    return _run_giant(scale, None)


def _multi_giant_sharded(scale: str) -> int:
    """Giant-scale workload through 4 shard workers (window barriers,
    per-group supersteps, shared worker pool)."""
    return _run_giant(scale, 4)


def _fig6_full(scale: str) -> int:
    """Figure 6 driver at full per-set fidelity, scaled by set count.

    Every per-set parameter (``P=128``, ``L=1000``, factor range 2–100,
    loads U(0.2, 6.0)) matches the full 5000-set run; the scenario gates
    the per-set wall time that bounds it.  Units are simulations run.
    """
    sets = 5 if scale == "smoke" else 50
    result = run_fig6(num_sets=sets)
    return 2 * len(result.points)


def _bench_unit(x: int) -> int:
    """Trivial work unit: the resilience scenario times supervision, not work."""
    return x + 1


def _runner_resilience(scale: str) -> int:
    """Supervised fan-out + checkpoint journal overhead (serial units).

    Times the resilience layer itself — content-addressed keying, atomic
    journal writes, and resume replay — over trivial units: one full pass
    that journals every unit, then a second pass that must resume all of
    them.  Units are work items processed across both passes.
    """
    import os
    import shutil
    import tempfile

    from ..runtime import CheckpointJournal, run_supervised

    count = 200 if scale == "smoke" else 1000
    items = list(range(count))
    keys = [f"bench-unit-{i}" for i in range(count)]
    # journal on tmpfs when available: the scenario gates the resilience
    # layer's CPU overhead, and disk-fsync latency is too run-to-run noisy
    # for the 20% regression gate
    base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    tmp = tempfile.mkdtemp(prefix="abg-bench-journal-", dir=base)
    try:
        first = run_supervised(
            _bench_unit, items, keys=keys, journal=CheckpointJournal(tmp)
        )
        second = run_supervised(
            _bench_unit, items, keys=keys, journal=CheckpointJournal(tmp)
        )
        if len(second.resumed) != count:
            raise RuntimeError("resilience bench failed to resume every unit")
        return len(first.results) + len(second.results)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _lint_deep(scale: str) -> int:
    """Interprocedural flow analysis (summaries + call graph + fixpoint).

    Cold run (no summary cache) so the timing covers the full analysis
    cost a cache miss pays; smoke analyzes the verify layer only, default
    the whole tree.  Units are functions analyzed.
    """
    from pathlib import Path

    from ..verify.flow import analyze_paths

    tree = Path(__file__).resolve().parent.parent
    target = tree / "verify" if scale == "smoke" else tree
    report = analyze_paths([target])
    return report.stats["functions"]


@dataclass(frozen=True, slots=True)
class Scenario:
    """A named benchmark workload: ``run(scale)`` returns work units done."""

    name: str
    description: str
    run: Callable[[str], int]


SCENARIOS: tuple[Scenario, ...] = (
    Scenario("explicit-reference", "reference heap engine, breadth-first", _explicit_reference),
    Scenario("explicit-fifo", "reference engine, FIFO greedy", _explicit_fifo),
    Scenario("batched-kernel", "batched level-major kernel", _batched_kernel),
    Scenario("phased-closed-form", "closed-form phased engine", _phased_closed_form),
    Scenario("simulate-abg", "ABG feedback loop, auto engine", _simulate_abg),
    Scenario("fig5-sweep", "Figure 5 driver, micro scale", _fig5_sweep),
    Scenario("fig6-sweep", "Figure 6 driver, micro scale", _fig6_sweep),
    Scenario(
        "multi-serial",
        "multiprogrammed DEQ loop, serial per-job executors",
        _multi_serial,
    ),
    Scenario(
        "multi-batched",
        "multiprogrammed DEQ loop, batched multi-job kernel",
        _multi_batched,
    ),
    Scenario(
        "multi-superstep",
        "stable-allocation loop, multi-quantum fast-forwarding",
        _multi_superstep,
    ),
    Scenario(
        "multi-superstep-off",
        "stable-allocation loop forced per-quantum",
        _multi_superstep_off,
    ),
    Scenario(
        "multi-hier",
        "hierarchical allocation, batched multi-job kernel",
        _multi_hier,
    ),
    Scenario(
        "multi-hier-serial",
        "hierarchical allocation, serial per-job executors",
        _multi_hier_serial,
    ),
    Scenario(
        "multi-giant-flat",
        "giant-scale sharding workload, one machine-wide window",
        _multi_giant_flat,
    ),
    Scenario(
        "multi-giant-sharded",
        "giant-scale sharding workload, 4 shard workers",
        _multi_giant_sharded,
    ),
    Scenario(
        "fig6-full",
        "Figure 6 driver, full per-set fidelity",
        _fig6_full,
    ),
    Scenario(
        "runner-resilience",
        "supervised fan-out + journal + resume overhead",
        _runner_resilience,
    ),
    Scenario("lint-deep", "interprocedural flow analysis, cold cache", _lint_deep),
)


def scenario_names() -> tuple[str, ...]:
    return tuple(s.name for s in SCENARIOS)
