"""Batch experiment runner: regenerate every result in one command.

``python -m repro all --out results/`` runs each experiment driver at the
chosen scale, writes one JSON artifact per experiment plus a combined
markdown report (paper-style tables with timings), and returns a summary.

Scales:

- ``smoke``   — seconds; used by the test suite;
- ``reduced`` — the default benchmark scale (~1 min);
- ``full``    — the paper's scale where defined (Figure 5: 99 factors x 50
  jobs; Figure 6: 5000 job sets; several minutes).
"""

from __future__ import annotations

import dataclasses
import json
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from . import (
    run_trim_demo,
    run_arrivals,
    run_bounds_check,
    run_characteristics_study,
    run_controller_compare,
    run_fig1,
    run_fig2,
    run_fig4,
    run_fig5,
    run_fig6,
    run_overhead_study,
    run_quantum_ablation,
    run_rate_ablation,
    run_discipline_ablation,
    run_allocator_ablation,
    run_stealing_compare,
    run_theorem1,
)
from ..runtime import CheckpointJournal, unit_key, write_atomic
from ..runtime.faults import FaultPlan
from .common import ExperimentTable, format_series, format_table
from .parallel import map_deterministic

if TYPE_CHECKING:
    from ..goldens.spec import ScenarioSpec

__all__ = [
    "ExperimentOutcome",
    "RunInterrupted",
    "RunnerResult",
    "experiment_scenarios",
    "resume_status",
    "run_everything",
    "SCALES",
    "DEFAULT_TASK_TIMEOUTS",
    "default_task_timeout",
]

SCALES = ("smoke", "reduced", "full")

#: Per-scale default ``--task-timeout`` (seconds), applied when the caller
#: passes none: a hung unit is reaped and retried without operator tuning.
#: Generous multiples of the observed per-unit wall times (a full-scale
#: fig6 unit runs minutes, not an hour), so only a genuine hang trips them.
DEFAULT_TASK_TIMEOUTS: dict[str, float] = {
    "smoke": 120.0,
    "reduced": 900.0,
    "full": 3600.0,
}


def default_task_timeout(scale: str) -> float | None:
    """The per-unit wall-clock limit ``run_everything`` applies at ``scale``
    when no explicit ``task_timeout`` is given (``None`` for unknown
    scales — scale validation happens in the experiment table)."""
    return DEFAULT_TASK_TIMEOUTS.get(scale)

#: Journal directory name inside the output directory.
JOURNAL_DIRNAME = ".journal"


class RunInterrupted(RuntimeError):
    """``repro all`` was interrupted (Ctrl-C / SIGTERM) after a clean shutdown.

    The checkpoint journal under ``<out>/.journal`` holds every experiment
    that completed before the interruption; rerunning with ``--resume``
    skips them.
    """


@dataclass(frozen=True, slots=True)
class ExperimentOutcome:
    name: str
    seconds: float
    rows: int
    artifact: str


@dataclass(slots=True)
class RunnerResult:
    scale: str
    outcomes: list[ExperimentOutcome] = field(default_factory=list)
    report_path: Path | None = None

    @property
    def total_seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def _to_records(result: Any) -> list[dict[str, Any]]:
    """Normalize a driver's return value into a list of plain dicts."""
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        # composite results (Fig5Result/Fig6Result/TransientResult/Fig2Result)
        if hasattr(result, "points"):
            return [dataclasses.asdict(p) for p in result.points]
        return [dataclasses.asdict(result)]
    if isinstance(result, tuple):  # fig4 returns (abg, agreedy)
        return [dataclasses.asdict(r) for r in result]
    if isinstance(result, list):
        return [dataclasses.asdict(r) for r in result]
    raise TypeError(f"cannot serialize experiment result of type {type(result)!r}")


#: One experiment: ``(name, driver, kwargs)``.  Everything is module-level
#: and picklable so the list can fan out over a process pool.
Experiment = tuple[str, Callable[..., Any], dict[str, Any]]


def _experiments(scale: str) -> list[Experiment]:
    if scale == "smoke":
        fig5_kwargs: dict[str, Any] = {"factors": (2, 30), "jobs_per_factor": 2}
        fig6_kwargs: dict[str, Any] = {"num_sets": 4}
        small: dict[str, Any] = {"jobs_per_factor": 1, "factors": (3,)}
        return [
            ("fig1", run_fig1, {}),
            ("fig2", run_fig2, {}),
            ("fig4", run_fig4, {}),
            ("fig5", run_fig5, fig5_kwargs),
            ("fig6", run_fig6, fig6_kwargs),
            ("theorem1", run_theorem1, {"parallelisms": (5,), "rates": (0.2,)}),
            ("bounds", run_bounds_check, {"factors": (2,), "jobs_per_factor": 1}),
            ("ablation-rate", run_rate_ablation, {"rates": (0.0, 0.4), **small}),
            ("ablation-quantum", run_quantum_ablation, {"lengths": (500,), **small}),
            ("ablation-discipline", run_discipline_ablation, {"num_random_dags": 1}),
            (
                "ablation-allocator",
                run_allocator_ablation,
                {"num_sets": 1, "target_load": 0.5},
            ),
            ("stealing", run_stealing_compare, {"num_jobs": 1, "iterations": 1}),
            (
                "overhead",
                run_overhead_study,
                {"costs": (0.0, 10.0), "factors": (5,), "jobs_per_factor": 1},
            ),
            (
                "controllers",
                run_controller_compare,
                {"parallelisms": (2, 8), "num_quanta": 8},
            ),
            ("arrivals", run_arrivals, {"interarrivals": (1000.0,), "jobs_per_set": 3}),
            ("characteristics", run_characteristics_study, {"quantum_length": 200}),
            ("trim", run_trim_demo, {"peak_width": 16, "quantum_length": 200}),
        ]
    if scale == "reduced":
        fig5_kwargs = {"factors": tuple(range(2, 101, 7)), "jobs_per_factor": 20}
        fig6_kwargs = {"num_sets": 120}
    elif scale == "full":
        fig5_kwargs = {"factors": tuple(range(2, 101)), "jobs_per_factor": 50}
        fig6_kwargs = {"num_sets": 5000}
    else:
        raise ValueError(f"unknown scale {scale!r}; pick one of {SCALES}")
    return [
        ("fig1", run_fig1, {}),
        ("fig2", run_fig2, {}),
        ("fig4", run_fig4, {}),
        ("fig5", run_fig5, fig5_kwargs),
        ("fig6", run_fig6, fig6_kwargs),
        ("theorem1", run_theorem1, {}),
        ("bounds", run_bounds_check, {}),
        ("ablation-rate", run_rate_ablation, {}),
        ("ablation-quantum", run_quantum_ablation, {}),
        ("ablation-discipline", run_discipline_ablation, {}),
        ("ablation-allocator", run_allocator_ablation, {}),
        ("stealing", run_stealing_compare, {}),
        ("overhead", run_overhead_study, {}),
        ("controllers", run_controller_compare, {}),
        ("arrivals", run_arrivals, {}),
        ("characteristics", run_characteristics_study, {}),
        ("trim", run_trim_demo, {}),
    ]


def _execute_experiment(item: Experiment) -> tuple[str, float, list[dict[str, Any]]]:
    """Run one experiment and normalize its rows (the pool's work unit)."""
    name, driver, kwargs = item
    t0 = time.perf_counter()
    raw = driver(**kwargs)
    seconds = time.perf_counter() - t0
    return name, seconds, _to_records(raw)


def _experiment_key(scale: str, item: Experiment) -> str:
    """Content-addressed checkpoint key of one ``repro all`` work item."""
    name, _driver, kwargs = item
    return unit_key("experiment", {"name": name, "scale": scale, "kwargs": kwargs})


def _encode_executed(result: tuple[str, float, list[dict[str, Any]]]) -> object:
    """Journal payload of one executed experiment (JSON-shaped)."""
    name, seconds, records = result
    return {"name": name, "seconds": seconds, "records": records}


def _decode_executed(payload: object) -> tuple[str, float, list[dict[str, Any]]]:
    """Rehydrate a journaled experiment; timings are the original run's."""
    if not isinstance(payload, dict):
        raise TypeError(f"runner journal payload must be a dict, got {type(payload)!r}")
    return str(payload["name"]), float(payload["seconds"]), list(payload["records"])


@contextmanager
def _interruptible() -> Iterator[None]:
    """Translate SIGTERM into KeyboardInterrupt for the enclosed block.

    Lets one handler path cover both Ctrl-C and a polite ``kill``: the pool
    is torn down by the supervisor's cleanup, the journal is already durable
    (every record is an fsync'd file), and the caller reports
    :class:`RunInterrupted`.  Signal handlers can only be installed from the
    main thread; elsewhere this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _on_term(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_term)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _markdown_table(name: str, records: list[dict[str, Any]]) -> str:
    if not records:
        return f"## {name}\n\n(no rows)\n"
    columns = [k for k in records[0] if not isinstance(records[0][k], (list, tuple, dict))]
    table = ExperimentTable(
        title=f"## {name}",
        columns=tuple(columns),
        rows=tuple({c: r[c] for c in columns} for r in records),
    )
    text = format_table(table) + "\n"
    # series-valued fields (e.g. fig1/fig4 request trajectories) render as
    # labelled series below the table when the table is small enough to read
    if len(records) <= 4:
        series_fields = [
            k
            for k, v in records[0].items()
            if isinstance(v, (list, tuple))
            and v
            and all(isinstance(x, (int, float)) for x in v)
        ]
        for record in records:
            label = next(
                (str(record[c]) for c in columns if isinstance(record[c], str)), ""
            )
            for field_name in series_fields:
                text += "\n" + format_series(
                    f"{label} {field_name}".strip(), record[field_name]
                )
        if series_fields:
            text += "\n"
    return text


def experiment_scenarios(scale: str = "smoke", sets: int = 2) -> list[ScenarioSpec]:
    """Golden scenarios straight from the fig6 sweep configuration.

    Materializes the first ``sets`` job sets of the Figure 6 experiment at
    ``scale`` — same seed, same ``[seed, index]`` child-stream recipe, same
    machine and workload parameters as ``python -m repro all`` — for the
    golden writer and freshness check
    (:func:`repro.goldens.record.record_fixtures`,
    :func:`repro.goldens.record.check_freshness`).  This is the bridge from
    "an experiment produced a number I trust" to "that exact run is now a
    regression fixture" (``python -m repro record-traces
    --from-experiments``); the committed default registry stays separate and
    smaller (:func:`repro.goldens.record.default_scenarios`).
    """
    from ..goldens.record import scenario_from_fig6
    from .common import default_rng_seed

    if sets < 1:
        raise ValueError("need at least one job set")
    fig6_kwargs = next(
        kwargs for name, _driver, kwargs in _experiments(scale) if name == "fig6"
    )
    count = min(sets, int(fig6_kwargs.get("num_sets", sets)))
    return [
        scenario_from_fig6(
            f"fig6-{scale}-set{i}",
            seed=default_rng_seed,
            index=i,
            processors=128,
            quantum_length=1000,
            load_range=(0.2, 6.0),
            factor_range=(2, 100),
        )
        for i in range(count)
    ]


def resume_status(out_dir: str | Path, scale: str = "reduced") -> tuple[int, int]:
    """``(completed, total)`` experiments a ``--resume`` run at this scale
    would replay from ``<out>/.journal`` versus execute fresh.

    Journal keys are content-addressed over the experiment name, scale, and
    driver kwargs, so a checkpoint from a different scale (or an experiment
    whose parameters changed since) correctly counts as not completed.
    An absent or empty journal reports ``(0, total)``.
    """
    items = _experiments(scale)
    journal = CheckpointJournal(Path(out_dir) / JOURNAL_DIRNAME)
    completed = sum(1 for item in items if _experiment_key(scale, item) in journal)
    return completed, len(items)


def run_everything(
    out_dir: str | Path,
    *,
    scale: str = "reduced",
    jobs: int = 1,
    resume: bool = False,
    retries: int | None = None,
    task_timeout: float | None = None,
    faults: FaultPlan | None = None,
) -> RunnerResult:
    """Run every experiment, write artifacts, and produce ``REPORT.md``.

    ``jobs > 1`` fans the (independent, internally-seeded) experiments out
    over a process pool (``0`` = all cores).  The JSON artifacts are
    bit-identical at any job count — only the wall-clock timings reported in
    ``REPORT.md`` vary run to run.

    Every completed experiment is checkpointed under ``<out>/.journal``;
    ``resume=True`` replays those records instead of re-running (a fresh run
    clears them first).  ``retries``/``task_timeout`` bound per-experiment
    failures and wall-clock time; ``task_timeout=None`` applies the
    per-scale default from :data:`DEFAULT_TASK_TIMEOUTS`, so a hung
    full-scale unit is reaped without operator tuning.  ``faults`` injects
    a deterministic fault schedule (chaos testing only).  Ctrl-C or
    SIGTERM shuts the pool down cleanly and raises :class:`RunInterrupted`
    — the journal survives, so the next ``--resume`` run picks up where
    this one stopped.
    """
    if task_timeout is None:
        task_timeout = default_task_timeout(scale)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    journal = CheckpointJournal(out / JOURNAL_DIRNAME)
    if not resume:
        journal.clear()
    items = _experiments(scale)
    keys = [_experiment_key(scale, item) for item in items]
    result = RunnerResult(scale=scale)
    report_sections: list[str] = [
        f"# ABG reproduction — experiment report (scale: {scale})",
        "",
    ]
    try:
        with _interruptible():
            executed = map_deterministic(
                _execute_experiment,
                items,
                workers=jobs,
                keys=keys,
                journal=journal,
                encode=_encode_executed,
                decode=_decode_executed,
                retries=retries,
                task_timeout=task_timeout,
                faults=faults,
            )
            # artifact emission stays inside the interruptible window: every
            # write is atomic, so a SIGTERM here still shuts down cleanly and
            # the (by now fully populated) journal replays on --resume
            for name, seconds, records in executed:
                artifact = out / f"{name}.json"
                write_atomic(artifact, json.dumps(records, indent=1, default=str))
                result.outcomes.append(
                    ExperimentOutcome(
                        name=name,
                        seconds=seconds,
                        rows=len(records),
                        artifact=str(artifact),
                    )
                )
                report_sections.append(_markdown_table(name, records))
                report_sections.append(f"_{len(records)} rows in {seconds:.2f}s_\n")
            report = out / "REPORT.md"
            write_atomic(report, "\n".join(report_sections))
            result.report_path = report
    except KeyboardInterrupt as exc:
        raise RunInterrupted(
            f"run interrupted with {len(journal)}/{len(items)} experiments "
            f"checkpointed under {out / JOURNAL_DIRNAME}; rerun with --resume"
        ) from exc
    return result
