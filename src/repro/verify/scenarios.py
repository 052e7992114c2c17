"""Canonical audit scenarios: run the seed engines over the example and
benchmark workloads and audit every trace.

This is the executable form of the acceptance criterion "the auditor reports
zero violations on every seed engine across the example workloads".  The CLI
``audit`` subcommand, the ``--audit`` global flag, and
``tests/test_audit_integration.py`` all run this suite, so a regression in an
engine, allocator, or feedback policy surfaces as a named invariant
violation rather than silent metric drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..allocators.equipartition import DynamicEquiPartitioning
from ..allocators.roundrobin import RoundRobinAllocator
from ..core.abg import AControl
from ..core.agreedy import AGreedy
from ..dag.builders import fork_join_from_phases
from ..engine.phased import PhasedJob
from ..sim.jobs import JobSpec
from ..sim.multi import simulate_job_set
from ..sim.single import simulate_job
from ..workloads.forkjoin import (
    ForkJoinGenerator,
    constant_parallelism_job,
    ramped_job,
    structural_transition_factor,
)
from .auditor import TraceExpectations, audit_multi_result, audit_trace
from .violations import AuditReport, merge_reports

__all__ = ["AuditScenario", "audit_scenarios", "run_audit_suite", "format_suite"]

_SEED = 20080414  # the paper's conference date; any fixed seed works


@dataclass(frozen=True, slots=True)
class AuditScenario:
    """A named, zero-argument audit producing one report."""

    name: str
    run: Callable[[], AuditReport]


def _single_job_reports(
    job: PhasedJob,
    *,
    processors: int,
    quantum_length: int,
    convergence_rate: float = 0.2,
    check_bounds: bool = False,
) -> AuditReport:
    """Audit one job under both engines and both feedback policies."""
    reports = []
    abg_expect = TraceExpectations(
        total_work=job.work,
        total_span=job.span,
        convergence_rate=convergence_rate,
        processors=processors,
        check_bounds=check_bounds,
    )
    agreedy_expect = TraceExpectations(
        total_work=job.work, total_span=job.span
    )
    dag = fork_join_from_phases([(p.width, p.levels) for p in job.phases])
    for engine_job in (job, dag):
        trace = simulate_job(
            engine_job,
            AControl(convergence_rate),
            processors,
            quantum_length=quantum_length,
        )
        reports.append(audit_trace(trace, abg_expect))
        trace = simulate_job(
            engine_job,
            AGreedy(),
            processors,
            quantum_length=quantum_length,
        )
        reports.append(audit_trace(trace, agreedy_expect))
    return merge_reports(reports)


def _scenario_quickstart() -> AuditReport:
    # examples/quickstart.py: one fork-join job, ABG vs A-Greedy, P=64, L=200.
    rng = np.random.default_rng(_SEED)
    job = ForkJoinGenerator(200).generate(rng, transition_factor=20)
    return _single_job_reports(job, processors=64, quantum_length=200)


def _scenario_constant_parallelism() -> AuditReport:
    # figures 1/4 workload: constant-width job, transient behaviour.
    job = constant_parallelism_job(width=10, levels=4000)
    return _single_job_reports(job, processors=128, quantum_length=500)


def _scenario_single_job_sweep() -> AuditReport:
    # examples/single_job_sweep.py + benchmarks fig5: jobs across transition
    # factors on an unconstrained machine.
    rng = np.random.default_rng(_SEED + 1)
    gen = ForkJoinGenerator(200)
    reports = []
    for factor in (2, 8, 32):
        for _ in range(2):
            job = gen.generate(rng, transition_factor=factor)
            reports.append(
                _single_job_reports(job, processors=128, quantum_length=200)
            )
    return merge_reports(reports)


def _scenario_bounds() -> AuditReport:
    # benchmarks/test_bench_bounds.py workload: ramped jobs are the regime
    # where r < 1/CL holds and Theorems 3-4 are checkable.
    job = ramped_job(peak_width=16, levels_per_phase=400)
    cl = structural_transition_factor(job)
    reports = []
    for rate in (0.0, 0.2):
        if rate * cl >= 1.0:
            continue
        trace = simulate_job(job, AControl(rate), 64, quantum_length=200)
        expect = TraceExpectations(
            total_work=job.work,
            total_span=job.span,
            convergence_rate=rate,
            processors=64,
            transition_factor=max(cl, trace.measured_transition_factor()),
            check_bounds=True,
        )
        reports.append(audit_trace(trace, expect))
    return merge_reports(reports)


def _scenario_multiprogrammed_deq() -> AuditReport:
    # examples/multiprogrammed.py + fig6: a DEQ-shared machine.
    rng = np.random.default_rng(_SEED + 2)
    gen = ForkJoinGenerator(100)
    specs = []
    expectations: dict[int, TraceExpectations] = {}
    for i in range(6):
        job = gen.generate(rng, transition_factor=int(rng.integers(2, 24)))
        release = int(rng.integers(0, 4)) * 100
        specs.append(
            JobSpec(job=job, feedback=AControl(0.2), release_time=release, job_id=i)
        )
        expectations[i] = TraceExpectations(
            total_work=job.work, total_span=job.span, convergence_rate=0.2
        )
    result = simulate_job_set(
        specs, DynamicEquiPartitioning(), processors=32, quantum_length=100
    )
    return audit_multi_result(result, expectations=expectations)


def _scenario_multiprogrammed_roundrobin() -> AuditReport:
    # ablation-allocator workload: round-robin is fair (its rotation grants
    # every deprived job ``share`` or ``share + 1``) but not non-reserving,
    # so the audit checks what the allocator declares.
    rng = np.random.default_rng(_SEED + 3)
    gen = ForkJoinGenerator(100)
    specs = [
        JobSpec(
            job=gen.generate(rng, transition_factor=8),
            feedback=AControl(0.2),
            job_id=i,
        )
        for i in range(4)
    ]
    result = simulate_job_set(
        specs, RoundRobinAllocator(), processors=16, quantum_length=100
    )
    return audit_multi_result(
        result,
        fair=RoundRobinAllocator.fair,
        non_reserving=RoundRobinAllocator.non_reserving,
    )


def _scenario_mixed_policies() -> AuditReport:
    # A-Greedy and ABG jobs sharing one DEQ machine (fig6's comparison setup).
    rng = np.random.default_rng(_SEED + 4)
    gen = ForkJoinGenerator(100)
    specs = []
    for i in range(4):
        feedback = AControl(0.2) if i % 2 == 0 else AGreedy()
        specs.append(
            JobSpec(job=gen.generate(rng, transition_factor=12), feedback=feedback, job_id=i)
        )
    result = simulate_job_set(
        specs, DynamicEquiPartitioning(), processors=24, quantum_length=100
    )
    return audit_multi_result(result)


def audit_scenarios() -> list[AuditScenario]:
    """The full named scenario list, in deterministic order."""
    return [
        AuditScenario("quickstart", _scenario_quickstart),
        AuditScenario("constant-parallelism", _scenario_constant_parallelism),
        AuditScenario("single-job-sweep", _scenario_single_job_sweep),
        AuditScenario("bounds", _scenario_bounds),
        AuditScenario("multiprogrammed-deq", _scenario_multiprogrammed_deq),
        AuditScenario("multiprogrammed-roundrobin", _scenario_multiprogrammed_roundrobin),
        AuditScenario("mixed-policies", _scenario_mixed_policies),
    ]


def run_audit_suite() -> list[tuple[str, AuditReport]]:
    """Run every scenario; returns ``(name, report)`` pairs."""
    return [(s.name, s.run()) for s in audit_scenarios()]


def format_suite(results: list[tuple[str, AuditReport]]) -> str:
    """Human-readable audit summary, one scenario per line (violations
    expanded underneath)."""
    lines = []
    for name, report in results:
        status = "ok" if report.ok else f"{len(report)} VIOLATION(S)"
        lines.append(
            f"{name:<28} {status}  ({len(report.checks)} invariant families)"
        )
        for violation in report:
            lines.append(f"    {violation}")
    total = sum(len(r) for _, r in results)
    lines.append(
        f"audit: {len(results)} scenarios, "
        + ("all invariants hold" if total == 0 else f"{total} violation(s)")
    )
    return "\n".join(lines)
