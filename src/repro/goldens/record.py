"""Recording golden fixtures and checking their freshness.

Recording happens in two steps.  First a scenario is *materialized*: the
fig6-style generators run once, here, with their pinned ``[seed, index]``
RNG recipe, and the resulting jobs are flattened into explicit phase
lists inside a :class:`~repro.goldens.spec.ScenarioSpec`.  Second the
scenario is executed on the serial reference path and its traces — plus
provenance (git revision, schema versions) — are written as a golden
bundle.  All randomness lives in this module, at authoring time; replay
(:mod:`repro.goldens.verify`, including its pool-dispatched worker) is
RNG-free and rebuilds jobs from the explicit phase lists only.

Freshness: because the bundle digest covers scenario + traces but not
provenance, re-recording a fixture's *stored* scenario under the current
tree must reproduce the committed digest bit-for-bit.  If it does not,
the tree's behaviour changed without re-recording the fixture —
:func:`check_freshness` turns that into an ``ABG404`` finding for CI.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..io.traces import (
    GOLDEN_SCHEMA_VERSION,
    SCHEMA_VERSION,
    GoldenBundle,
    load_golden_bundle,
    save_golden_bundle,
)
from ..sim.replay import replay_path
from ..verify.findings import LintFinding, RULES
from ..workloads.arrivals import staggered_releases
from ..workloads.jobsets import JobSetGenerator
from .spec import ExplicitJob, ScenarioSpec

__all__ = [
    "DEFAULT_FIXTURE_DIR",
    "scenario_from_fig6",
    "dag_scenario",
    "default_scenarios",
    "record_bundle",
    "record_fixtures",
    "record_stale_fixtures",
    "fixture_paths",
    "check_freshness",
]

#: Where committed fixtures live, relative to the repository root.
DEFAULT_FIXTURE_DIR = Path("fixtures/goldens")


def scenario_from_fig6(
    scenario_id: str,
    *,
    seed: int,
    index: int = 0,
    processors: int = 32,
    quantum_length: int = 200,
    load_range: tuple[float, float] = (0.5, 1.5),
    factor_range: tuple[int, int] = (2, 100),
    policy: str = "abg",
    policy_params: Mapping[str, float] | None = None,
    allocator: str = "deq",
    release_gap: int = 0,
    max_quanta: int = 200_000,
    horizon: int | None = None,
) -> ScenarioSpec:
    """Materialize one Figure-6-style job set into an explicit scenario.

    Mirrors the experiment sweep's generation recipe exactly — child RNG
    stream ``[seed, index]``, a uniform load target, then
    :class:`~repro.workloads.jobsets.JobSetGenerator` — so recorded
    fixtures exercise the same workload shapes the experiments do.
    ``release_gap`` staggers arrivals arithmetically (0 = batched).
    """
    rng = np.random.default_rng([seed, index])
    set_gen = JobSetGenerator(
        processors, quantum_length=quantum_length, factor_range=factor_range
    )
    target = float(rng.uniform(load_range[0], load_range[1]))
    sample = set_gen.generate(rng, target)
    releases = staggered_releases(len(sample.jobs), release_gap)
    jobs = tuple(
        ExplicitJob(
            job_id=i,
            release_time=releases[i],
            phases=tuple((p.width, p.levels) for p in job.phases),
        )
        for i, job in enumerate(sample.jobs)
    )
    params = policy_params if policy_params is not None else _default_params(policy)
    return ScenarioSpec(
        scenario_id=scenario_id,
        policy=policy,
        policy_params=tuple(sorted(params.items())),
        allocator=allocator,
        processors=processors,
        quantum_length=quantum_length,
        max_quanta=max_quanta,
        jobs=jobs,
        horizon=horizon,
    )


def _default_params(policy: str) -> dict[str, float]:
    """The experiment sweep's default knobs for each policy."""
    if policy == "abg":
        return {"convergence_rate": 0.2}
    return {"responsiveness": 2.0, "utilization_threshold": 0.8}


def _layered_edges(
    rng: np.random.Generator,
    *,
    num_levels: int,
    min_width: int,
    max_width: int,
    structure: str,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(num_tasks, edges)`` of one random layered unit-task dag.

    ``structure="barrier"`` fully connects adjacent levels, which keeps the
    dag level-major (every level a barrier level) so the batched dag kernel
    applies.  ``structure="irregular"`` gives every task one anchor parent
    plus sparse extra edges — generally *not* level-major, the shape the
    reference heap engine exists for.  Randomness lives here, at authoring
    time only: the returned edge list is stored explicitly in the fixture.
    """
    widths = rng.integers(min_width, max_width + 1, size=num_levels)
    starts = np.concatenate([[0], np.cumsum(widths)])
    edges: list[tuple[int, int]] = []
    for lvl in range(1, num_levels):
        prev = range(int(starts[lvl - 1]), int(starts[lvl]))
        cur = range(int(starts[lvl]), int(starts[lvl + 1]))
        for v in cur:
            if structure == "barrier":
                edges.extend((u, v) for u in prev)
                continue
            anchor = int(rng.integers(starts[lvl - 1], starts[lvl]))
            edges.append((anchor, v))
            for u in prev:
                if u != anchor and rng.random() < 0.35:
                    edges.append((u, v))
    return int(starts[-1]), tuple(edges)


def dag_scenario(
    scenario_id: str,
    *,
    seed: int,
    index: int = 0,
    num_jobs: int = 6,
    processors: int = 16,
    quantum_length: int = 10,
    num_levels: tuple[int, int] = (40, 80),
    width_range: tuple[int, int] = (1, 6),
    structure: str = "barrier",
    engine: str = "auto",
    policy: str = "abg",
    policy_params: Mapping[str, float] | None = None,
    allocator: str = "deq",
    release_gap: int = 0,
    max_quanta: int = 200_000,
) -> ScenarioSpec:
    """Materialize a dag-structured scenario (schema 2 fixture).

    Each job is a random layered unit-task dag flattened into an explicit
    edge list — see :func:`_layered_edges` for the two structures.  With
    ``engine="reference"`` the jobs are non-batchable, so every
    ``batch="auto"`` replay runs the serial reference loop.
    """
    rng = np.random.default_rng([seed, index])
    releases = staggered_releases(num_jobs, release_gap)
    jobs = tuple(
        ExplicitJob(
            job_id=i,
            release_time=releases[i],
            dag=_layered_edges(
                rng,
                num_levels=int(rng.integers(num_levels[0], num_levels[1] + 1)),
                min_width=width_range[0],
                max_width=width_range[1],
                structure=structure,
            ),
            engine=engine,
        )
        for i in range(num_jobs)
    )
    params = policy_params if policy_params is not None else _default_params(policy)
    return ScenarioSpec(
        scenario_id=scenario_id,
        policy=policy,
        policy_params=tuple(sorted(params.items())),
        allocator=allocator,
        processors=processors,
        quantum_length=quantum_length,
        max_quanta=max_quanta,
        jobs=jobs,
    )


def default_scenarios() -> tuple[ScenarioSpec, ...]:
    """The committed fixture registry.

    Small machines and short quanta keep fixtures a few hundred KB and
    replays sub-second, while still covering the regimes that matter:
    light load (allotments track requests), saturated load (DEQ waterfall
    + rotation active), the AGreedy policy, the round-robin allocator,
    staggered arrivals (admission at quantum boundaries), dag-structured
    jobs on the batched dag kernel (barrier-layered, level-major),
    non-batchable dag jobs pinned to the reference heap engine (run on the
    serial reference loop on both replay paths), and hierarchical
    allocation over four groups with jobs migrating between them (per-group
    windows on the ``superstep`` path).
    """
    return (
        scenario_from_fig6(
            "fig6-light-abg",
            seed=2008,
            index=1,
            processors=32,
            quantum_length=200,
            load_range=(0.6, 0.9),
        ),
        scenario_from_fig6(
            "fig6-heavy-abg",
            seed=2008,
            index=2,
            processors=24,
            quantum_length=150,
            load_range=(3.0, 4.0),
        ),
        scenario_from_fig6(
            "fig6-agreedy",
            seed=2008,
            index=3,
            processors=32,
            quantum_length=200,
            load_range=(1.5, 2.5),
            policy="agreedy",
        ),
        scenario_from_fig6(
            "fig6-roundrobin",
            seed=2008,
            index=4,
            processors=24,
            quantum_length=150,
            load_range=(1.0, 2.0),
            allocator="roundrobin",
        ),
        scenario_from_fig6(
            "fig6-staggered-abg",
            seed=2008,
            index=5,
            processors=32,
            quantum_length=200,
            load_range=(1.5, 2.5),
            release_gap=600,
        ),
        dag_scenario(
            "dag-barrier-abg",
            seed=2008,
            index=6,
            structure="barrier",
        ),
        dag_scenario(
            "dag-reference-agreedy",
            seed=2008,
            index=7,
            structure="irregular",
            engine="reference",
            policy="agreedy",
        ),
        scenario_from_fig6(
            "fig6-hier-abg",
            seed=2008,
            index=8,
            processors=32,
            quantum_length=200,
            load_range=(1.5, 2.5),
            factor_range=(2, 20),
            allocator="hier",
            release_gap=400,
        ),
    )


def _current_rev() -> str:
    """Short git revision of the working tree, or ``"dev"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "dev"
    return (out.stdout.strip() if out.returncode == 0 else "") or "dev"


def record_bundle(
    spec: ScenarioSpec,
    *,
    extra_provenance: Mapping[str, Any] | None = None,
) -> GoldenBundle:
    """Execute ``spec`` on the serial reference path and bundle the traces.

    Provenance carries the recording context only — no timestamps, so
    recording the same tree twice yields byte-identical fixture files.
    """
    specs, allocator = spec.build()
    result = replay_path(
        specs,
        allocator,
        spec.processors,
        quantum_length=spec.quantum_length,
        max_quanta=spec.max_quanta,
        path="serial",
    )
    scenario = spec.to_dict()
    provenance: dict[str, Any] = {
        "recorded_rev": _current_rev(),
        "golden_schema": GOLDEN_SCHEMA_VERSION,
        "trace_schema": SCHEMA_VERSION,
        # The schema the scenario payload actually uses (``to_dict`` emits
        # the lowest sufficient version), not the tree's maximum.
        "spec_schema": scenario["schema"],
        "scenario_id": spec.scenario_id,
        "reference_path": "serial",
    }
    if extra_provenance:
        provenance.update(dict(extra_provenance))
    return GoldenBundle(
        scenario=scenario, traces=dict(result.traces), provenance=provenance
    )


def record_fixtures(
    out_dir: str | Path,
    scenarios: Sequence[ScenarioSpec] | None = None,
) -> list[Path]:
    """Record every scenario into ``out_dir`` as ``<scenario_id>.json``."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    specs = tuple(scenarios) if scenarios is not None else default_scenarios()
    for spec in specs:
        bundle = record_bundle(spec)
        written.append(
            save_golden_bundle(directory / f"{spec.scenario_id}.json", bundle)
        )
    return written


def record_stale_fixtures(
    out_dir: str | Path,
    scenarios: Sequence[ScenarioSpec] | None = None,
) -> tuple[list[Path], list[Path]]:
    """Re-record only the stale fixtures — the write-side twin of
    :func:`check_freshness` (the CLI's ``--record-on-green`` mode).

    A registry fixture is *stale* when its file is missing or unreadable,
    its stored scenario no longer matches the registry's materialization,
    or its digest differs from a fresh recording.  Extra fixtures beyond
    the registry (shrinker-emitted regressions) are re-recorded from their
    *stored* scenarios when their digest drifted, and left alone when
    unreadable (``check_freshness`` surfaces those as findings).  Fresh
    fixtures are never rewritten, so their bytes — including historical
    ``recorded_rev`` provenance — stay untouched.

    Returns ``(written, skipped)`` paths, each in deterministic order.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    registry = tuple(scenarios) if scenarios is not None else default_scenarios()
    written: list[Path] = []
    skipped: list[Path] = []
    registry_files: set[str] = set()
    for spec in registry:
        path = directory / f"{spec.scenario_id}.json"
        registry_files.add(path.name)
        fresh = record_bundle(spec)
        stale = True
        if path.exists():
            try:
                bundle = load_golden_bundle(path)
            except ValueError:
                pass
            else:
                stale = (
                    bundle.scenario != fresh.scenario
                    or bundle.digest != fresh.digest
                )
        if stale:
            written.append(save_golden_bundle(path, fresh))
        else:
            skipped.append(path)
    for path in fixture_paths(directory):
        if path.name in registry_files:
            continue
        try:
            bundle = load_golden_bundle(path)
            stored = ScenarioSpec.from_dict(bundle.scenario)
        except ValueError:
            continue
        fresh = record_bundle(stored)
        if fresh.digest != bundle.digest:
            written.append(save_golden_bundle(path, fresh))
        else:
            skipped.append(path)
    return written, skipped


def fixture_paths(fixture_dir: str | Path) -> list[Path]:
    """All fixture files in a directory, in deterministic name order."""
    return sorted(Path(fixture_dir).glob("*.json"))


def _finding(code: str, path: str, message: str) -> LintFinding:
    severity, _summary = RULES[code]
    return LintFinding(
        path=path, line=1, col=0, code=code, message=message, severity=severity
    )


def check_freshness(
    fixture_dir: str | Path,
    scenarios: Sequence[ScenarioSpec] | None = None,
) -> list[LintFinding]:
    """Would re-recording from the current tree change any fixture?

    Three checks, each an ``ABG404`` finding when violated:

    - every committed fixture, re-recorded from its own *stored* scenario
      (RNG-free), must reproduce the committed digest;
    - every registry scenario must have a fixture file, and that file's
      stored scenario must match the registry's materialization (catches a
      generator or registry edit without re-recording);
    - unreadable fixtures surface as ``ABG403``.

    Extra fixture files beyond the registry (e.g. shrinker-emitted
    regressions) are allowed; they are still digest-checked.
    """
    directory = Path(fixture_dir)
    registry = tuple(scenarios) if scenarios is not None else default_scenarios()
    findings: list[LintFinding] = []
    by_id = {spec.scenario_id: spec for spec in registry}
    seen: set[str] = set()
    for path in fixture_paths(directory):
        rel = str(path)
        try:
            bundle = load_golden_bundle(path)
            stored = ScenarioSpec.from_dict(bundle.scenario)
        except ValueError as exc:
            findings.append(_finding("ABG403", rel, str(exc)))
            continue
        seen.add(stored.scenario_id)
        registered = by_id.get(stored.scenario_id)
        if registered is not None and registered.to_dict() != bundle.scenario:
            findings.append(
                _finding(
                    "ABG404",
                    rel,
                    f"fixture scenario {stored.scenario_id!r} no longer matches "
                    "the registry's materialization; re-record with "
                    "`python -m repro record-traces`",
                )
            )
            continue
        fresh = record_bundle(stored)
        if fresh.digest != bundle.digest:
            findings.append(
                _finding(
                    "ABG404",
                    rel,
                    f"re-recording scenario {stored.scenario_id!r} from the "
                    f"current tree changes its digest ({bundle.digest[:12]} -> "
                    f"{fresh.digest[:12]}); behaviour drifted — re-record or "
                    "fix the regression",
                )
            )
    for scenario_id in sorted(set(by_id) - seen):
        findings.append(
            _finding(
                "ABG404",
                str(directory / f"{scenario_id}.json"),
                f"registry scenario {scenario_id!r} has no recorded fixture; "
                "run `python -m repro record-traces`",
            )
        )
    return findings
