"""Delta-debugging a failing scenario down to a minimal reproduction.

When ``verify-traces`` fails, the failing fixture is usually fig6-scale:
several jobs, dozens of phases each, thousands of quanta.  The shrinker
reduces it to something a human can stare at, with classic deterministic
ddmin over three axes in sequence:

1. **jobs** — remove subsets of the job set (chunks, then complements)
   while the failure predicate still fires;
2. **phases** — for each surviving job, ddmin its phase list (keeping at
   least one phase);
3. **horizon** — pin the comparison window to one quantum past the
   divergence point, so the minimized fixture fails instantly on replay.

The default predicate, :func:`cross_path_divergence`, compares the serial
reference path against the superstep path *on the candidate subset
itself* — it needs no recorded golden, so it stays meaningful on
job subsets (a multiprogrammed golden trace cannot be projected onto a
subset: removing one job changes every allocation after its arrival).
A kernel regression that breaks path identity therefore shrinks to the
smallest job set on which the paths still disagree.  If the paths agree
everywhere but the golden differs, the behaviour changed *consistently*
on all paths — that is a semantic change to re-record, not a kernel-parity
bug to shrink, and :func:`shrink_scenario` reports it as unshrinkable.

Everything here is deterministic: candidate order is fixed, the predicate
is pure, and job ids are preserved so the minimized scenario's divergence
report matches the original's vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from ..io.traces import GoldenBundle
from ..sim.replay import replay_path
from .diff import TraceDivergence, first_divergence
from .record import record_bundle
from .spec import ScenarioSpec

__all__ = [
    "Predicate",
    "ShrinkResult",
    "cross_path_divergence",
    "shrink_scenario",
    "regression_bundle",
]

#: A failure predicate: the divergence a candidate scenario still exhibits,
#: or ``None`` if the candidate no longer fails.
Predicate = Callable[[ScenarioSpec], TraceDivergence | None]


def cross_path_divergence(spec: ScenarioSpec) -> TraceDivergence | None:
    """First divergence of the superstep path from the serial path.

    Self-contained (no golden needed), so it can judge arbitrary job
    subsets.
    """

    def traces(path: str) -> dict[int, Any]:
        specs, allocator = spec.build()
        result = replay_path(
            specs,
            allocator,
            spec.processors,
            quantum_length=spec.quantum_length,
            max_quanta=spec.max_quanta,
            path=path,
        )
        return dict(result.traces)

    return first_divergence(traces("serial"), traces("superstep"))


@dataclass(frozen=True, slots=True)
class ShrinkResult:
    """A minimized failing scenario plus the divergence it reproduces."""

    spec: ScenarioSpec
    divergence: TraceDivergence
    original_jobs: int
    original_phases: int
    evaluations: int

    @property
    def job_count(self) -> int:
        return len(self.spec.jobs)

    @property
    def phase_count(self) -> int:
        return sum(len(job.phases) for job in self.spec.jobs)

    def describe(self) -> str:
        return (
            f"shrunk {self.original_jobs} job(s) / {self.original_phases} "
            f"phase(s) to {self.job_count} job(s) / {self.phase_count} "
            f"phase(s) in {self.evaluations} evaluation(s); "
            f"{self.divergence.describe()}"
        )


class _Shrinker:
    """ddmin driver holding the predicate and the evaluation counter."""

    def __init__(self, predicate: Predicate):
        self.predicate = predicate
        self.evaluations = 0

    def check(self, spec: ScenarioSpec) -> TraceDivergence | None:
        self.evaluations += 1
        return self.predicate(spec)

    def ddmin_jobs(
        self, spec: ScenarioSpec, divergence: TraceDivergence
    ) -> tuple[ScenarioSpec, TraceDivergence]:
        """Classic ddmin over the job tuple (ids preserved)."""
        jobs = spec.jobs
        granularity = 2
        while len(jobs) >= 2:
            chunks = _partition(jobs, granularity)
            reduced = False
            for candidate in _candidates(chunks):
                try:
                    trial = spec.with_jobs(candidate)
                except ValueError:
                    continue
                found = self.check(trial)
                if found is not None:
                    jobs = candidate
                    spec = trial
                    divergence = found
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if granularity >= len(jobs):
                    break
                granularity = min(len(jobs), granularity * 2)
        return spec, divergence

    def ddmin_phases(
        self, spec: ScenarioSpec, divergence: TraceDivergence
    ) -> tuple[ScenarioSpec, TraceDivergence]:
        """Per-job ddmin over each surviving job's phase list."""
        for job in list(spec.jobs):
            phases = job.phases
            granularity = 2
            while len(phases) >= 2:
                chunks = _partition(phases, granularity)
                reduced = False
                for candidate in _candidates(chunks):
                    try:
                        trial = _swap_job(spec, job.job_id, candidate)
                    except ValueError:
                        continue
                    found = self.check(trial)
                    if found is not None:
                        phases = candidate
                        spec = trial
                        divergence = found
                        job = replace(job, phases=candidate)
                        granularity = max(granularity - 1, 2)
                        reduced = True
                        break
                if not reduced:
                    if granularity >= len(phases):
                        break
                    granularity = min(len(phases), granularity * 2)
        return spec, divergence


def _partition(
    items: tuple[Any, ...], granularity: int
) -> list[tuple[Any, ...]]:
    n = len(items)
    granularity = min(granularity, n)
    bounds = [round(i * n / granularity) for i in range(granularity + 1)]
    return [
        items[bounds[i] : bounds[i + 1]]
        for i in range(granularity)
        if bounds[i] < bounds[i + 1]
    ]


def _candidates(chunks: list[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    """ddmin trial order: each chunk alone, then each complement."""
    out: list[tuple[Any, ...]] = list(chunks)
    if len(chunks) > 2:
        for i in range(len(chunks)):
            complement: tuple[Any, ...] = ()
            for j, chunk in enumerate(chunks):
                if j != i:
                    complement += chunk
            out.append(complement)
    return out


def _swap_job(
    spec: ScenarioSpec, job_id: int, phases: tuple[tuple[int, int], ...]
) -> ScenarioSpec:
    jobs = tuple(
        replace(job, phases=phases) if job.job_id == job_id else job
        for job in spec.jobs
    )
    return spec.with_jobs(jobs)


def shrink_scenario(
    spec: ScenarioSpec,
    predicate: Predicate = cross_path_divergence,
) -> ShrinkResult | None:
    """Minimize ``spec`` while ``predicate`` keeps failing.

    Returns ``None`` when the predicate does not fail on the full
    scenario (nothing to shrink — e.g. the golden diverged consistently
    on every path, which is a re-record situation, not a parity bug).
    """
    divergence = predicate(spec)
    if divergence is None:
        return None
    original_jobs = len(spec.jobs)
    original_phases = sum(len(job.phases) for job in spec.jobs)
    driver = _Shrinker(predicate)
    driver.evaluations += 1  # the initial full-set check above
    spec, divergence = driver.ddmin_jobs(spec, divergence)
    spec, divergence = driver.ddmin_phases(spec, divergence)
    if divergence.position is not None:
        spec = replace(spec, horizon=divergence.position + 1)
    return ShrinkResult(
        spec=spec,
        divergence=divergence,
        original_jobs=original_jobs,
        original_phases=original_phases,
        evaluations=driver.evaluations,
    )


def regression_bundle(
    result: ShrinkResult, *, shrunk_from: str, suffix: str = "-min"
) -> GoldenBundle:
    """A ready-to-commit fixture for a shrunk reproduction.

    Records the minimized scenario's *serial* traces as the new golden
    (the reference semantics), renamed ``<original id><suffix>`` with
    provenance pointing back at the fixture it was shrunk from.  Once the
    regression is fixed, committing this bundle pins the case forever.
    """
    minimized = replace(
        result.spec, scenario_id=f"{result.spec.scenario_id}{suffix}"
    )
    return record_bundle(
        minimized,
        extra_provenance={
            "shrunk_from": shrunk_from,
            "shrink_divergence": result.divergence.to_payload(),
            "shrink_evaluations": result.evaluations,
        },
    )
