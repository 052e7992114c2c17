"""Job sets run as disjoint machines equal the same sets run alone.

Random job sets — each on its own machine size, under mixed ABG and
A-Greedy policies, with late releases and reallocation overhead — run as
:class:`DisjointMachines` of one simulation.  Split back into one result per
machine, every machine must equal a lone run of its set under
``DynamicEquiPartitioning`` on its own processors, field for field (the
lone run uses the machine's shifted job ids), and pass the auditor under
DEQ's fair, non-reserving contract.  The combined run goes through the
windowed loop, the serial reference loop, and the windowed loop with every
superstep refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.allocators.machines import DisjointMachines
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.overhead import NO_OVERHEAD, ReallocationOverhead
from repro.engine.phased import PhasedJob
from repro.sim import sharded
from repro.sim.jobs import JobSpec
from repro.sim.multi import simulate_job_set, split_machines
from repro.verify.auditor import audit_multi_result

L = 10


def _random_machines(seed: int):
    """Per machine: its processors and its ``(job, release)`` list; plus
    each machine's policy (shared instances, as in the Figure 6 sweep)."""
    rng = np.random.default_rng(seed)
    policies = [AControl(0.3), AGreedy(2.0, 0.8)]
    machines = []
    for _ in range(int(rng.integers(2, 5))):
        processors = int(rng.integers(2, 17))
        jobs = []
        for _ in range(int(rng.integers(1, processors + 1))):
            phases = []
            for _ in range(int(rng.integers(1, 4))):
                phases.append((1, int(rng.integers(1, 30))))
                phases.append((int(rng.integers(2, 24)), int(rng.integers(1, 300))))
            release = int(rng.integers(0, 6 * L)) if rng.random() < 0.4 else 0
            jobs.append((PhasedJob(phases), release))
        machines.append((processors, jobs, policies[int(rng.integers(0, 2))]))
    return machines


def _specs(jobs, policy, offset):
    return [
        JobSpec(job=job, feedback=policy, release_time=release, job_id=offset + i)
        for i, (job, release) in enumerate(jobs)
    ]


def assert_same_run(got, want) -> None:
    assert list(got.traces) == list(want.traces)  # finish order
    assert got.processors == want.processors
    assert got.quantum_length == want.quantum_length
    assert got.quanta_elapsed == want.quanta_elapsed
    assert got.released == want.released
    for jid, trace in want.traces.items():
        other = got.traces[jid]
        assert (other.release_time, other.job_id) == (trace.release_time, trace.job_id)
        assert other.records == trace.records
    assert got.makespan == want.makespan
    assert got.mean_response_time == want.mean_response_time


@pytest.mark.parametrize("mode", ["auto", "off", "no-superstep"])
@pytest.mark.parametrize("seed", range(6))
def test_split_machines_equal_lone_runs(seed, mode, monkeypatch):
    machines = _random_machines(seed)
    # Odd seeds lose steps to reallocation, which the auditor's greedy
    # non-idling check does not model (it audits overhead-free runs).
    overhead = ReallocationOverhead(per_processor=0.5, fixed=1) if seed % 2 else NO_OVERHEAD
    allocator = DisjointMachines([p for p, _, _ in machines])
    specs = []
    for m, (_, jobs, policy) in enumerate(machines):
        specs.extend(_specs(jobs, policy, allocator.machine_offset(m)))
    if mode == "no-superstep":
        monkeypatch.setattr(sharded, "_attempt_superstep", lambda *a, **k: 0)
    combined = simulate_job_set(
        specs,
        allocator,
        allocator.total,
        quantum_length=L,
        overhead=overhead,
        batch="off" if mode == "off" else "auto",
    )
    parts = split_machines(combined, allocator)
    assert len(parts) == len(machines)
    for m, ((processors, jobs, policy), part) in enumerate(zip(machines, parts)):
        alone = simulate_job_set(
            _specs(jobs, policy, allocator.machine_offset(m)),
            DynamicEquiPartitioning(),
            processors,
            quantum_length=L,
            overhead=overhead,
            batch="off",
        )
        assert_same_run(part, alone)
        report = audit_multi_result(part, fair=True, non_reserving=True)
        assert report.violations == audit_multi_result(alone).violations
        if overhead is NO_OVERHEAD:
            assert report.violations == ()


def test_satisfied_jobs_report_their_machine_size():
    specs = [
        JobSpec(job=PhasedJob([(1, 40)]), feedback=AControl(), job_id=0),
        JobSpec(job=PhasedJob([(1, 40)]), feedback=AControl(), job_id=3),
    ]
    for batch in ("auto", "off"):
        result = simulate_job_set(
            specs, DisjointMachines([3, 5]), 8, quantum_length=L, batch=batch
        )
        assert set(result.traces[0].columns.available.tolist()) == {3}
        assert set(result.traces[3].columns.available.tolist()) == {5}


def test_simulate_refuses_a_set_that_does_not_fit():
    specs = [JobSpec(job=PhasedJob([(1, 4)]), feedback=AControl(), job_id=5)]
    with pytest.raises(ValueError, match="processors = sum\\(budgets\\) = 8, got 9"):
        simulate_job_set(specs, DisjointMachines([3, 5]), 9)
    with pytest.raises(ValueError, match="job 8 is outside every machine"):
        simulate_job_set(
            [*specs, JobSpec(job=PhasedJob([(1, 4)]), feedback=AControl(), job_id=8)],
            DisjointMachines([3, 5]),
            8,
        )
