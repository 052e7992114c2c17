"""Scenario specifications: everything a golden fixture needs to re-execute.

A :class:`ScenarioSpec` pins one multiprogrammed run completely — the job
set (explicit fork-join phase lists or explicit unit-task dags, with
release times), the feedback policy and its parameters, the allocator, the
machine size, and the quantum length.  Committed fixtures always carry
*explicit* job sets, so replaying them is RNG-free: a fixture's behaviour
can never drift with a numpy version or a generator change.  Randomized
(fig6-style) scenarios are materialized into this form at authoring time
by :mod:`repro.goldens.record`.

``to_dict``/``from_dict`` round-trip the spec through the JSON scenario
payload embedded in a golden bundle; ``from_dict`` validates every field
and raises :class:`ValueError` naming the offending path, mirroring the
hardened trace loaders in :mod:`repro.io.traces`.

Schema versions: schema 1 carries fork-join phase lists only; schema 2
adds dag-structured jobs (an explicit edge list plus a pinned engine).
``to_dict`` emits the *lowest* sufficient schema — a phased-only scenario
still serializes as schema 1, byte-identical to fixtures recorded before
dag support existed, so committed digests never churn on a schema bump.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..allocators.base import Allocator
from ..allocators.equipartition import DynamicEquiPartitioning
from ..allocators.hierarchical import HierarchicalAllocator
from ..allocators.roundrobin import RoundRobinAllocator
from ..core.abg import AControl
from ..core.agreedy import AGreedy
from ..core.feedback import FeedbackPolicy
from ..dag.graph import Dag
from ..engine.phased import PhasedJob
from ..sim.jobs import JobSpec

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "POLICY_PARAMS",
    "ALLOCATOR_NAMES",
    "DAG_ENGINES",
    "ExplicitJob",
    "ScenarioSpec",
]

#: The highest scenario schema this tree can read and write.
SPEC_SCHEMA_VERSION = 2

#: Engines a dag job may pin (mirrors :data:`repro.sim.jobs.EngineChoice`).
#: ``"reference"`` forces the step-accurate heap engine, which makes the
#: job non-batchable — such a scenario runs on the serial reference loop on
#: both replay paths.
DAG_ENGINES: tuple[str, ...] = ("auto", "batched", "reference")

#: policy name -> the constructor keyword arguments it accepts.
POLICY_PARAMS: dict[str, tuple[str, ...]] = {
    "abg": ("convergence_rate",),
    "agreedy": ("responsiveness", "utilization_threshold"),
}

ALLOCATOR_NAMES: tuple[str, ...] = ("deq", "roundrobin", "hier")

#: ``"hier"``'s parameters: groups of 8 processors that rebalance every other
#: quantum, so a small machine has several groups and jobs migrate between
#: them.
_HIER_GROUP_SIZE = 8
_HIER_REBALANCE_INTERVAL = 2


def _require_int(value: Any, path: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {path} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"field {path} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class ExplicitJob:
    """One materialized job: id, release time, and explicit structure.

    Structure is exactly one of ``phases`` (a fork-join phase list — the
    schema-1 form) or ``dag`` (``(num_tasks, edges)`` for a unit-task dag,
    with ``engine`` pinning how it executes — schema 2).  Phased jobs keep
    ``engine="auto"``: the simulator always runs them on the closed-form
    phased engine, so a pinned engine would be dead weight in the payload.
    """

    job_id: int
    release_time: int
    phases: tuple[tuple[int, int], ...] = ()
    dag: tuple[int, tuple[tuple[int, int], ...]] | None = None
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError("job id must be non-negative")
        if self.release_time < 0:
            raise ValueError("release time must be non-negative")
        if bool(self.phases) == (self.dag is not None):
            raise ValueError(
                f"job {self.job_id} needs exactly one of phases or dag"
            )
        if self.engine not in DAG_ENGINES:
            raise ValueError(
                f"job {self.job_id} has unknown engine {self.engine!r}; "
                f"pick one of {DAG_ENGINES}"
            )
        for width, levels in self.phases:
            if width < 1 or levels < 1:
                raise ValueError(
                    f"job {self.job_id} has a non-positive phase "
                    f"({width}, {levels})"
                )
        if self.dag is not None:
            # Constructing the dag runs the full validation suite (range,
            # self-loop, cycle) and pins the errors to this job.
            try:
                Dag(self.dag[0], self.dag[1])
            except ValueError as exc:
                raise ValueError(
                    f"job {self.job_id} has an invalid dag: {exc}"
                ) from None
        elif self.engine != "auto":
            raise ValueError(
                f"job {self.job_id} pins engine {self.engine!r} without a dag"
            )

    def description(self) -> PhasedJob | Dag:
        """The re-instantiable job description a :class:`JobSpec` accepts."""
        if self.dag is not None:
            return Dag(self.dag[0], self.dag[1])
        return PhasedJob(self.phases)

    def to_payload(self) -> dict[str, Any]:
        # Key order matters for fixture bytes: phased jobs must serialize
        # exactly as schema 1 always did.
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "release_time": self.release_time,
        }
        if self.dag is None:
            payload["phases"] = [list(p) for p in self.phases]
        else:
            payload["dag"] = {
                "num_tasks": self.dag[0],
                "edges": [list(e) for e in self.dag[1]],
            }
            payload["engine"] = self.engine
        return payload

    @classmethod
    def from_payload(cls, raw: Any, *, where: str) -> "ExplicitJob":
        if not isinstance(raw, dict):
            raise ValueError(
                f"field {where} must be an object, got {type(raw).__name__}"
            )
        for name in ("job_id", "release_time"):
            if name not in raw:
                raise ValueError(f"missing field {where}.{name}")
        if ("phases" in raw) == ("dag" in raw):
            raise ValueError(
                f"field {where} must carry exactly one of phases or dag"
            )
        phases: list[tuple[int, int]] = []
        dag: tuple[int, tuple[tuple[int, int], ...]] | None = None
        engine = "auto"
        if "phases" in raw:
            phases_raw = raw["phases"]
            if not isinstance(phases_raw, list) or not phases_raw:
                raise ValueError(f"field {where}.phases must be a non-empty list")
            for i, pair in enumerate(phases_raw):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ValueError(
                        f"field {where}.phases[{i}] must be a [width, levels] pair"
                    )
                phases.append(
                    (
                        _require_int(pair[0], f"{where}.phases[{i}][0]", minimum=1),
                        _require_int(pair[1], f"{where}.phases[{i}][1]", minimum=1),
                    )
                )
        else:
            dag_raw = raw["dag"]
            if not isinstance(dag_raw, dict):
                raise ValueError(f"field {where}.dag must be an object")
            for name in ("num_tasks", "edges"):
                if name not in dag_raw:
                    raise ValueError(f"missing field {where}.dag.{name}")
            edges_raw = dag_raw["edges"]
            if not isinstance(edges_raw, list):
                raise ValueError(f"field {where}.dag.edges must be a list")
            edges: list[tuple[int, int]] = []
            for i, pair in enumerate(edges_raw):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ValueError(
                        f"field {where}.dag.edges[{i}] must be a "
                        "[parent, child] pair"
                    )
                edges.append(
                    (
                        _require_int(pair[0], f"{where}.dag.edges[{i}][0]", minimum=0),
                        _require_int(pair[1], f"{where}.dag.edges[{i}][1]", minimum=0),
                    )
                )
            dag = (
                _require_int(dag_raw["num_tasks"], f"{where}.dag.num_tasks", minimum=1),
                tuple(edges),
            )
            engine_raw = raw.get("engine", "auto")
            if not isinstance(engine_raw, str):
                raise ValueError(f"field {where}.engine must be a string")
            engine = engine_raw
        try:
            return cls(
                job_id=_require_int(raw["job_id"], f"{where}.job_id", minimum=0),
                release_time=_require_int(
                    raw["release_time"], f"{where}.release_time", minimum=0
                ),
                phases=tuple(phases),
                dag=dag,
                engine=engine,
            )
        except ValueError as exc:
            raise ValueError(f"invalid job at {where}: {exc}") from None


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One fully-pinned multiprogrammed scenario.

    ``policy_params`` is a name-sorted tuple of pairs (hashable, with a
    canonical order so equal scenarios serialize — and digest —
    identically).  ``horizon`` optionally bounds the *comparison* window
    during replay to the first N quanta of every job; the simulation still
    runs to completion.  The shrinker uses it to pin a minimized
    reproduction to its divergence point.
    """

    scenario_id: str
    policy: str
    policy_params: tuple[tuple[str, float], ...]
    allocator: str
    processors: int
    quantum_length: int
    max_quanta: int
    jobs: tuple[ExplicitJob, ...]
    horizon: int | None = None

    def __post_init__(self) -> None:
        if not self.scenario_id or not self.scenario_id.strip():
            raise ValueError("scenario_id must be a non-empty string")
        allowed = POLICY_PARAMS.get(self.policy)
        if allowed is None:
            raise ValueError(
                f"unknown policy {self.policy!r}; pick one of "
                f"{tuple(sorted(POLICY_PARAMS))}"
            )
        for name, _value in self.policy_params:
            if name not in allowed:
                raise ValueError(
                    f"policy {self.policy!r} does not accept parameter {name!r} "
                    f"(allowed: {allowed})"
                )
        if tuple(sorted(n for n, _ in self.policy_params)) != tuple(
            n for n, _ in self.policy_params
        ):
            raise ValueError("policy_params must be sorted by name")
        if self.allocator not in ALLOCATOR_NAMES:
            raise ValueError(
                f"unknown allocator {self.allocator!r}; pick one of "
                f"{ALLOCATOR_NAMES}"
            )
        if self.processors < 1:
            raise ValueError("need at least one processor")
        if self.quantum_length < 1:
            raise ValueError("quantum length must be >= 1")
        if self.max_quanta < 1:
            raise ValueError("max_quanta must be >= 1")
        if not self.jobs:
            raise ValueError("scenario has no jobs")
        seen: set[int] = set()
        for job in self.jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job id {job.job_id} in scenario")
            seen.add(job.job_id)
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1 (or None for unbounded)")

    # -- execution ------------------------------------------------------------

    def build_policy(self) -> FeedbackPolicy:
        """One policy instance, shared by every job (the experiment idiom)."""
        params = dict(self.policy_params)
        if self.policy == "abg":
            return AControl(**params)
        return AGreedy(**params)

    def build_allocator(self) -> Allocator:
        if self.allocator == "deq":
            return DynamicEquiPartitioning()
        if self.allocator == "hier":
            return HierarchicalAllocator(
                _HIER_GROUP_SIZE, rebalance_interval=_HIER_REBALANCE_INTERVAL
            )
        return RoundRobinAllocator()

    def build(self) -> tuple[list[JobSpec], Allocator]:
        """Fresh job specs (sharing one policy instance) plus a fresh
        allocator, ready for :func:`repro.sim.replay.replay_path`."""
        policy = self.build_policy()
        specs = [
            JobSpec(
                job=job.description(),
                feedback=policy,
                release_time=job.release_time,
                job_id=job.job_id,
                engine=job.engine,  # type: ignore[arg-type]
            )
            for job in self.jobs
        ]
        return specs, self.build_allocator()

    def with_jobs(self, jobs: tuple[ExplicitJob, ...]) -> "ScenarioSpec":
        return replace(self, jobs=jobs)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        # Emit the lowest sufficient schema: phased-only scenarios keep
        # serializing as schema 1 so fixtures recorded before dag support
        # stay byte-identical (and their digests stable).
        schema = 2 if any(job.dag is not None for job in self.jobs) else 1
        payload: dict[str, Any] = {
            "schema": schema,
            "scenario_id": self.scenario_id,
            "policy": self.policy,
            "policy_params": {name: value for name, value in self.policy_params},
            "allocator": self.allocator,
            "processors": self.processors,
            "quantum_length": self.quantum_length,
            "max_quanta": self.max_quanta,
            "jobs": [job.to_payload() for job in self.jobs],
        }
        if self.horizon is not None:
            payload["horizon"] = self.horizon
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, where: str = "scenario") -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise ValueError(
                f"field {where} must be an object, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema not in (1, SPEC_SCHEMA_VERSION):
            raise ValueError(
                f"unsupported scenario schema {schema!r} at {where}"
            )
        for name in (
            "scenario_id",
            "policy",
            "policy_params",
            "allocator",
            "processors",
            "quantum_length",
            "max_quanta",
            "jobs",
        ):
            if name not in data:
                raise ValueError(f"missing field {where}.{name}")
        scenario_id = data["scenario_id"]
        if not isinstance(scenario_id, str):
            raise ValueError(f"field {where}.scenario_id must be a string")
        policy = data["policy"]
        if not isinstance(policy, str):
            raise ValueError(f"field {where}.policy must be a string")
        params_raw = data["policy_params"]
        if not isinstance(params_raw, Mapping):
            raise ValueError(f"field {where}.policy_params must be an object")
        params: list[tuple[str, float]] = []
        for name in sorted(params_raw):
            value = params_raw[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"field {where}.policy_params.{name} must be a number, "
                    f"got {value!r}"
                )
            params.append((str(name), float(value)))
        allocator = data["allocator"]
        if not isinstance(allocator, str):
            raise ValueError(f"field {where}.allocator must be a string")
        jobs_raw = data["jobs"]
        if not isinstance(jobs_raw, list):
            raise ValueError(f"field {where}.jobs must be a list")
        jobs = tuple(
            ExplicitJob.from_payload(raw, where=f"{where}.jobs[{i}]")
            for i, raw in enumerate(jobs_raw)
        )
        if schema == 1 and any(job.dag is not None for job in jobs):
            raise ValueError(
                f"field {where}.jobs carries dag jobs but declares schema 1 "
                "(dag jobs require schema 2)"
            )
        horizon_raw = data.get("horizon")
        horizon = (
            None
            if horizon_raw is None
            else _require_int(horizon_raw, f"{where}.horizon", minimum=1)
        )
        try:
            return cls(
                scenario_id=scenario_id,
                policy=policy,
                policy_params=tuple(params),
                allocator=allocator,
                processors=_require_int(
                    data["processors"], f"{where}.processors", minimum=1
                ),
                quantum_length=_require_int(
                    data["quantum_length"], f"{where}.quantum_length", minimum=1
                ),
                max_quanta=_require_int(
                    data["max_quanta"], f"{where}.max_quanta", minimum=1
                ),
                jobs=jobs,
                horizon=horizon,
            )
        except ValueError as exc:
            raise ValueError(f"invalid scenario at {where}: {exc}") from None
