"""Figure 6 — makespan and mean response time of multiprogrammed job sets
versus system load.

Setup (paper Section 7): job sets mixing transition factors space-share
``P = 128`` processors under dynamic equi-partitioning; *load* is the set's
total average parallelism over ``P``.  The paper runs 5000 job sets; the
driver accepts any count (EXPERIMENTS.md reports the default reduced run and
the shape is stable well before 5000).

Reported per set: makespan normalized by the theoretical lower bound ``M*``,
batched mean response time normalized by ``R*``, and the per-set
A-Greedy/ABG ratios.  Paper headline: ABG wins by 10-15% under light loads;
the schedulers converge as the system saturates (deprived requests make the
feedback law irrelevant).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from ..runtime import CheckpointJournal
    from ..sim.stats import ConfidenceInterval

from ..allocators.hierarchical import HierarchicalAllocator
from ..allocators.machines import DisjointMachines
from ..core.abg import AControl
from ..core.agreedy import AGreedy
from ..core.feedback import FeedbackPolicy
from ..sim.jobs import JobSpec
from ..sim.metrics import makespan_lower_bound, mean_response_time_lower_bound
from ..runtime import unit_key
from ..sim.multi import simulate_job_set, split_machines
from ..workloads.jobsets import JobSetGenerator, JobSetSample
from .common import default_rng_seed
from .parallel import map_deterministic

__all__ = ["Fig6Point", "Fig6Result", "LoadBin", "run_fig6", "bin_by_load"]


@dataclass(frozen=True, slots=True)
class Fig6Point:
    """One job set, run under both schedulers."""

    load: float
    num_jobs: int
    abg_makespan_norm: float
    agreedy_makespan_norm: float
    abg_response_norm: float
    agreedy_response_norm: float
    makespan_ratio: float
    """A-Greedy / ABG makespan (Figure 6(b))."""
    response_ratio: float
    """A-Greedy / ABG mean response time (Figure 6(d))."""


@dataclass(frozen=True, slots=True)
class Fig6Result:
    points: tuple[Fig6Point, ...]
    processors: int
    quantum_length: int
    convergence_rate: float

    def light_load_ratios(self, cutoff: float | None = 1.0) -> tuple[float, float]:
        """(mean makespan ratio, mean response ratio) over sets with load at
        most ``cutoff`` — where the paper reports the 10-15% ABG advantage.
        ``cutoff=None`` uses the 25th percentile of achieved loads (useful
        for small samples where no set landed under the paper's cutoff)."""
        loads = [p.load for p in self.points]
        if cutoff is None or not any(l <= cutoff for l in loads):
            cutoff = float(np.percentile(loads, 25))
        light = [p for p in self.points if p.load <= cutoff]
        return (
            float(np.mean([p.makespan_ratio for p in light])),
            float(np.mean([p.response_ratio for p in light])),
        )

    def makespan_ratio_ci(self, confidence: float = 0.95) -> "ConfidenceInterval":
        """Bootstrap confidence interval of the mean per-set A-Greedy/ABG
        makespan ratio across all loads."""
        from ..sim.stats import bootstrap_ci

        return bootstrap_ci(
            [p.makespan_ratio for p in self.points], confidence=confidence
        )

    def heavy_load_ratios(self, cutoff: float | None = 4.0) -> tuple[float, float]:
        """Counterpart of :meth:`light_load_ratios` for saturated systems;
        ``cutoff=None`` uses the 75th percentile of achieved loads."""
        loads = [p.load for p in self.points]
        if cutoff is None or not any(l >= cutoff for l in loads):
            cutoff = float(np.percentile(loads, 75))
        heavy = [p for p in self.points if p.load >= cutoff]
        return (
            float(np.mean([p.makespan_ratio for p in heavy])),
            float(np.mean([p.response_ratio for p in heavy])),
        )


#: Job sets per work unit.  A chunk's sets run under both policies as
#: disjoint DEQ machines of one simulation, so they share its per-quantum
#: call overhead; more sets per chunk hold more quantum logs at once.  16
#: sits at the knee of that time/memory trade on 40- and 200-set sweeps
#: (docs/PERFORMANCE.md, "Figure 6 on a machine axis" and "The quantum
#: log is the result").
CHUNK_SETS = 16


@dataclass(frozen=True, slots=True)
class _Fig6Task:
    """A chunk of consecutive job sets — the parallel fan-out unit."""

    indices: tuple[int, ...]
    load_range: tuple[float, float]
    processors: int
    quantum_length: int
    convergence_rate: float
    responsiveness: float
    utilization_threshold: float
    factor_range: tuple[int, int]
    seed: int
    group_size: int | None = None


def _generate_set(task: _Fig6Task, index: int) -> JobSetSample:
    """Job set ``index``, drawn from its own ``[seed, index]`` child stream
    so the sweep produces bit-identical numbers at any chunking or worker
    count."""
    rng = np.random.default_rng([task.seed, index])
    set_gen = JobSetGenerator(
        task.processors,
        quantum_length=task.quantum_length,
        factor_range=task.factor_range,
    )
    target = float(rng.uniform(task.load_range[0], task.load_range[1]))
    return set_gen.generate(rng, target)


def _run_machines(
    samples: list[JobSetSample],
    policies: tuple[FeedbackPolicy, FeedbackPolicy],
    task: _Fig6Task,
) -> list[tuple[float, float]]:
    """(makespan, mean response time) of every set under every policy,
    set-major: each set under each policy is one DEQ machine of ``P``
    processors, and all of them run as :class:`DisjointMachines` of one
    simulation.  Machines never share a processor, so each one's schedule
    is the one a run of its set alone would produce."""
    machines = DisjointMachines([task.processors] * (len(samples) * len(policies)))
    specs: list[JobSpec] = []
    for s, sample in enumerate(samples):
        for k, policy in enumerate(policies):
            offset = machines.machine_offset(s * len(policies) + k)
            specs.extend(
                JobSpec(job=job, feedback=policy, job_id=offset + i)
                for i, job in enumerate(sample.jobs)
            )
    result = simulate_job_set(
        specs, machines, machines.total, quantum_length=task.quantum_length
    )
    return [
        (float(part.makespan), float(part.mean_response_time))
        for part in split_machines(result, machines)
    ]


def _run_hierarchical(
    sample: JobSetSample, policy: FeedbackPolicy, group_size: int, task: _Fig6Task
) -> tuple[float, float]:
    """(makespan, mean response time) of one set under hierarchical
    allocation with groups of ``group_size`` processors: groups share the
    set's processors, so a hierarchical set is not a disjoint machine and
    runs alone."""
    result = simulate_job_set(
        [JobSpec(job=job, feedback=policy) for job in sample.jobs],
        HierarchicalAllocator(group_size),
        task.processors,
        quantum_length=task.quantum_length,
    )
    return float(result.makespan), float(result.mean_response_time)


def _fig6_chunk_points(task: _Fig6Task) -> list[Fig6Point]:
    """Generate and simulate a chunk of job sets under both schedulers.

    Module-level so the chunks can fan out over a process pool.  One
    policy instance per scheduler serves the whole chunk, so the windowed
    loop's feedback step makes one batch call per scheduler per quantum.
    """
    samples = [_generate_set(task, i) for i in task.indices]
    policies: tuple[FeedbackPolicy, FeedbackPolicy] = (
        AControl(task.convergence_rate),
        AGreedy(task.responsiveness, task.utilization_threshold),
    )
    group_size = task.group_size
    if group_size is None:
        runs = _run_machines(samples, policies, task)
    else:
        runs = [
            _run_hierarchical(sample, policy, group_size, task)
            for sample in samples
            for policy in policies
        ]
    points = []
    for s, sample in enumerate(samples):
        (m_abg, r_abg), (m_ag, r_ag) = runs[2 * s], runs[2 * s + 1]
        m_star = makespan_lower_bound(
            sample.works, sample.spans, [0] * len(sample.jobs), task.processors
        )
        r_star = mean_response_time_lower_bound(
            sample.works, sample.spans, task.processors
        )
        points.append(
            Fig6Point(
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
    return points


def _encode_fig6_points(points: list[Fig6Point]) -> object:
    return [dataclasses.asdict(p) for p in points]


def _decode_fig6_points(payload: object) -> list[Fig6Point]:
    """Rehydrate a journaled Figure 6 chunk payload (see ``repro.runtime``)."""
    if not isinstance(payload, list):
        raise TypeError(
            f"fig6 journal payload must be a list, got {type(payload)!r}"
        )
    points = []
    for item in payload:
        if not isinstance(item, dict):
            raise TypeError(f"fig6 journal point must be a dict, got {type(item)!r}")
        fields: dict[str, Any] = dict(item)
        points.append(Fig6Point(**fields))
    return points


def run_fig6(
    *,
    num_sets: int = 200,
    load_range: tuple[float, float] = (0.2, 6.0),
    processors: int = 128,
    quantum_length: int = 1000,
    convergence_rate: float = 0.2,
    responsiveness: float = 2.0,
    utilization_threshold: float = 0.8,
    factor_range: tuple[int, int] = (2, 100),
    seed: int = default_rng_seed,
    workers: int = 1,
    journal: "CheckpointJournal | None" = None,
    retries: int | None = None,
    task_timeout: float | None = None,
    group_size: int | None = None,
) -> Fig6Result:
    """Run the Figure 6 sweep: ``num_sets`` batched job sets with target
    loads drawn uniformly from ``load_range``.

    Each set draws from its own ``[seed, index]`` random stream.  The work
    unit is a chunk of up to :data:`CHUNK_SETS` consecutive sets, run under
    both schedulers as disjoint DEQ machines of one simulation;
    ``workers > 1`` fans the chunks out over a process pool with
    bit-identical results (``0`` = all cores).  An optional ``journal``
    checkpoints each completed chunk so an interrupted sweep resumes where
    it stopped; ``retries``/``task_timeout`` bound per-unit failures.
    ``group_size`` runs every set under hierarchical allocation instead of
    centralized DEQ (a policy choice: it changes the numbers,
    deterministically).
    """
    if num_sets < 1:
        raise ValueError("need at least one job set")
    if not (0 < load_range[0] <= load_range[1]):
        raise ValueError("invalid load range")
    if group_size is not None and group_size < 1:
        raise ValueError("group size must be >= 1")
    tasks = [
        _Fig6Task(
            indices=tuple(range(first, min(first + CHUNK_SETS, num_sets))),
            load_range=load_range,
            processors=processors,
            quantum_length=quantum_length,
            convergence_rate=convergence_rate,
            responsiveness=responsiveness,
            utilization_threshold=utilization_threshold,
            factor_range=factor_range,
            seed=seed,
            group_size=group_size,
        )
        for first in range(0, num_sets, CHUNK_SETS)
    ]
    keys = [unit_key("fig6-chunk", dataclasses.asdict(t)) for t in tasks]
    chunks = map_deterministic(
        _fig6_chunk_points,
        tasks,
        workers=workers,
        keys=keys,
        journal=journal,
        encode=_encode_fig6_points,
        decode=_decode_fig6_points,
        retries=retries,
        task_timeout=task_timeout,
    )
    points = [point for chunk in chunks for point in chunk]
    points.sort(key=lambda p: p.load)
    return Fig6Result(
        points=tuple(points),
        processors=processors,
        quantum_length=quantum_length,
        convergence_rate=convergence_rate,
    )


@dataclass(frozen=True, slots=True)
class LoadBin:
    load_low: float
    load_high: float
    count: int
    abg_makespan_norm: float
    agreedy_makespan_norm: float
    abg_response_norm: float
    agreedy_response_norm: float
    makespan_ratio: float
    response_ratio: float


def bin_by_load(result: Fig6Result, *, num_bins: int = 12) -> list[LoadBin]:
    """Average the per-set points into load bins — the smoothed series the
    paper plots in Figures 6(a) and 6(c)."""
    if num_bins < 1:
        raise ValueError("need at least one bin")
    loads = np.array([p.load for p in result.points])
    lo, hi = float(loads.min()), float(loads.max())
    edges = np.linspace(lo, hi, num_bins + 1)
    bins: list[LoadBin] = []
    for i in range(num_bins):
        mask = (loads >= edges[i]) & (
            loads <= edges[i + 1] if i == num_bins - 1 else loads < edges[i + 1]
        )
        members = [p for p, m in zip(result.points, mask) if m]
        if not members:
            continue
        bins.append(
            LoadBin(
                load_low=float(edges[i]),
                load_high=float(edges[i + 1]),
                count=len(members),
                abg_makespan_norm=float(np.mean([p.abg_makespan_norm for p in members])),
                agreedy_makespan_norm=float(
                    np.mean([p.agreedy_makespan_norm for p in members])
                ),
                abg_response_norm=float(np.mean([p.abg_response_norm for p in members])),
                agreedy_response_norm=float(
                    np.mean([p.agreedy_response_norm for p in members])
                ),
                makespan_ratio=float(np.mean([p.makespan_ratio for p in members])),
                response_ratio=float(np.mean([p.response_ratio for p in members])),
            )
        )
    return bins
