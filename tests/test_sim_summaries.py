"""A windowed run's result is its quantum log.

``simulate_job_set`` on the windowed loop keeps the run's
:class:`~repro.sim.superstep.QuantumLog` and expands it into traces only
when ``traces`` is first read.  The per-job summaries behind the set-level
metrics, ``split_machines`` and the giant artifact are summed from the
log's compact rows instead.  These tests hold the summaries to the ones
summed from the built traces, and the serial loop (``batch="off"``), which
never logs, to the same numbers and bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.allocators import DynamicEquiPartitioning, HierarchicalAllocator
from repro.allocators.machines import DisjointMachines
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.overhead import NO_OVERHEAD, ReallocationOverhead
from repro.core.types import JobTrace
from repro.engine.phased import PhasedJob
from repro.io.traces import save_traces
from repro.report import write_csv
from repro.sim import sharded
from repro.sim.jobs import JobSpec
from repro.sim.metrics import JobSummaries, makespan, mean_response_time
from repro.sim.multi import MultiJobResult, simulate_job_set, split_machines
from repro.sim.superstep import QuantumLog
from repro.workloads.giant import artifact_rows, giant_scenario

POLICIES = (AControl(0.2), AControl(0.5), AGreedy(), AGreedy(3.0, 0.6))


def _no_expansion(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make any expansion of a quantum log into traces fail."""

    def refuse(self, traces):
        raise AssertionError("the quantum log was expanded into traces")

    monkeypatch.setattr(QuantumLog, "build_traces", refuse)


def _no_supersteps(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(sharded, "_attempt_superstep", lambda *a, **k: 0)


def _random_specs(seed: int, n: int, *, max_release: int) -> list[JobSpec]:
    rng = np.random.default_rng(seed)
    specs = []
    for jid in range(n):
        phases = [
            (int(rng.integers(1, 24)), int(rng.integers(20, 600)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        release = int(rng.integers(0, max_release)) if rng.random() < 0.5 else 0
        specs.append(
            JobSpec(
                job=PhasedJob(phases),
                feedback=POLICIES[int(rng.integers(len(POLICIES)))],
                release_time=release,
                job_id=int(rng.integers(0, 4)) + 5 * jid,
            )
        )
    return specs


def _summary_fields(summaries: JobSummaries) -> dict[str, list[int]]:
    return {f.name: getattr(summaries, f.name).tolist() for f in dataclasses.fields(summaries)}


ROUTES = {
    "per-group": lambda: (HierarchicalAllocator(12, rebalance_interval=6), {"shards": 2}),
    "machine-wide": lambda: (HierarchicalAllocator(12, rebalance_interval=6), {}),
    "flat": lambda: (DynamicEquiPartitioning(), {}),
}


@pytest.mark.parametrize("supersteps", [True, False], ids=["supersteps", "refused"])
@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("seed", range(4))
def test_log_summaries_equal_trace_summaries(seed, route, supersteps, monkeypatch):
    if not supersteps:
        _no_supersteps(monkeypatch)
    specs = _random_specs(seed, 18, max_release=900)
    overhead = ReallocationOverhead(per_processor=0.5, fixed=3) if seed % 2 else NO_OVERHEAD
    allocator, mode = ROUTES[route]()
    run = dict(quantum_length=50, overhead=overhead)
    result = simulate_job_set(specs, allocator, 40, **run, **mode)
    with monkeypatch.context() as patch:
        _no_expansion(patch)
        from_log = result.summaries
        metrics = (result.makespan, result.mean_response_time, result.total_work, result.total_waste)
    traces = result.traces
    assert _summary_fields(from_log) == _summary_fields(JobSummaries.of_traces(traces))
    assert metrics == (
        makespan(traces.values()),
        mean_response_time(traces.values()),
        sum(t.total_work for t in traces.values()),
        sum(t.total_waste for t in traces.values()),
    )
    serial_allocator, _ = ROUTES[route]()
    serial = simulate_job_set(specs, serial_allocator, 40, **run, batch="off")
    assert _summary_fields(serial.summaries) == _summary_fields(from_log)
    assert serial == result


def test_distinct_quanta_count_overlapping_windows_once():
    # Per-group windows log each group's groups over the same quanta, so a
    # job set's distinct quanta are fewer than its groups' repeats summed.
    specs = _random_specs(7, 30, max_release=1500)
    result = simulate_job_set(
        specs, HierarchicalAllocator(12, rebalance_interval=6), 40, quantum_length=50, shards=2
    )
    log = result._compact.log
    everyone = log.quanta_per_owner(lambda ids: np.zeros(ids.size, dtype=np.int64), 1)
    assert everyone.tolist() == [result.quanta_elapsed]
    assert sum(group.repeat for group in log._groups) > result.quanta_elapsed
    by_parity = log.quanta_per_owner(lambda ids: ids % 2, 2)
    starts = [[], []]
    for jid, trace in result.traces.items():
        starts[jid % 2].append(trace.columns.start_step)
    assert by_parity.tolist() == [np.unique(np.concatenate(s)).size for s in starts]


def _disjoint_set(seed: int) -> tuple[DisjointMachines, list[JobSpec]]:
    """Machines of random sizes, each with its own jobs, their releases
    staggered across machines."""
    rng = np.random.default_rng(seed)
    budgets = [int(rng.integers(3, 17)) for _ in range(int(rng.integers(2, 6)))]
    machines = DisjointMachines(budgets)
    specs = []
    for m, budget in enumerate(budgets):
        offset = machines.machine_offset(m)
        stagger = int(rng.integers(0, 8)) * 20
        for i in range(int(rng.integers(1, budget + 1))):
            phases = [(int(rng.integers(1, 12)), int(rng.integers(10, 300)))]
            release = stagger + (int(rng.integers(0, 100)) if rng.random() < 0.3 else 0)
            specs.append(
                JobSpec(
                    job=PhasedJob(phases),
                    feedback=POLICIES[(m + i) % 2],
                    release_time=release,
                    job_id=offset + i,
                )
            )
    return machines, specs


@pytest.mark.parametrize("supersteps", [True, False], ids=["supersteps", "refused"])
@pytest.mark.parametrize("seed", range(6))
def test_split_parts_from_the_log_equal_eager_parts(seed, supersteps, monkeypatch):
    if not supersteps:
        _no_supersteps(monkeypatch)
    machines, specs = _disjoint_set(seed)
    # Allocators are stateful: each run gets its own.
    budgets = machines.budgets
    lazy = simulate_job_set(specs, DisjointMachines(budgets), machines.total, quantum_length=20)
    built = simulate_job_set(specs, DisjointMachines(budgets), machines.total, quantum_length=20)
    # A result holding built traces, as every result did before the log
    # was kept: its parts are cut from the traces.
    eager = MultiJobResult(
        traces=built.traces,
        processors=built.processors,
        quantum_length=built.quantum_length,
        quanta_elapsed=built.quanta_elapsed,
        released=built.released,
    )
    with monkeypatch.context() as patch:
        _no_expansion(patch)
        parts = split_machines(lazy, machines)
        read = [
            (p.makespan, p.mean_response_time.hex(), p.quanta_elapsed, p.total_work)
            for p in parts if p.released
        ]
    want = split_machines(eager, machines)
    assert read == [
        (p.makespan, p.mean_response_time.hex(), p.quanta_elapsed, p.total_work)
        for p in want if p.released
    ]
    for got, part in zip(parts, want):
        assert list(got.traces) == list(part.traces)
        assert got == part
    assert lazy.traces == eager.traces


def test_giant_artifact_never_expands_the_log(tmp_path, monkeypatch):
    scenario = giant_scenario(groups=4, jobs_per_group=8, stable_quanta=12)

    def artifact(name: str, **mode) -> bytes:
        result = simulate_job_set(
            scenario.specs,
            scenario.build_allocator(),
            scenario.processors,
            quantum_length=scenario.quantum_length,
            **mode,
        )
        return write_csv(artifact_rows(result), tmp_path / f"{name}.csv").read_bytes()

    serial = artifact("serial", batch="off")
    _no_expansion(monkeypatch)
    assert artifact("per-group", shards=2) == serial
    assert artifact("machine-wide") == serial


def test_traces_read_from_the_log_save_the_serial_bytes(tmp_path):
    scenario = giant_scenario(groups=4, jobs_per_group=8, stable_quanta=12)

    def saved(name: str, **mode) -> bytes:
        result = simulate_job_set(
            scenario.specs,
            scenario.build_allocator(),
            scenario.processors,
            quantum_length=scenario.quantum_length,
            **mode,
        )
        return save_traces(result.traces, tmp_path / f"{name}.json").read_bytes()

    assert saved("per-group", shards=2) == saved("serial", batch="off")


def test_replaced_and_reassigned_traces_drop_the_log():
    specs = _random_specs(3, 8, max_release=200)
    result = simulate_job_set(specs, DynamicEquiPartitioning(), 16, quantum_length=50)
    serial = simulate_job_set(specs, DynamicEquiPartitioning(), 16, quantum_length=50, batch="off")
    first = next(iter(serial.traces))
    fewer = {jid: t for jid, t in serial.traces.items() if jid != first}
    replaced = dataclasses.replace(result, traces=fewer)
    assert list(replaced.traces) == list(fewer)
    assert replaced.total_work == sum(t.total_work for t in fewer.values())
    result.traces = fewer
    assert result.summaries.job_id.tolist() == list(fewer)


def test_log_summaries_need_the_logs_jobs():
    specs = _random_specs(3, 8, max_release=200)
    result = simulate_job_set(specs, DynamicEquiPartitioning(), 16, quantum_length=50)
    log, traces = result._compact.log, result._traces
    assert QuantumLog(50).job_summaries({}).job_id.size == 0
    with pytest.raises(ValueError, match="the log holds no quanta of the traces' jobs"):
        QuantumLog(50).job_summaries(traces)
    first = next(iter(traces))
    fewer = {jid: t for jid, t in traces.items() if jid != first}
    more = {**traces, 99: JobTrace(50, job_id=99)}
    for wrong in (fewer, more):
        with pytest.raises(ValueError, match="the traces' jobs are not the log's jobs"):
            log.job_summaries(wrong)
    assert log.job_summaries(traces).job_id.tolist() == list(traces)
