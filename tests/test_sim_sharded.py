"""Byte-identity proof of per-group windows against the serial oracle.

``simulate_job_set(..., shards=N)`` advances each group of a hierarchical
allocator through a window of quanta per call; ``shards=None`` runs the
same window body as one machine-wide group.  Both are therefore also
compared with ``batch="off"``, the serial reference loop, which shares no
code with the windowed loop.  The claim mirrors the batch/superstep claims:
traces are *bit-identical* on every route, on every workload — mid-run
releases, migrations at rebalancing boundaries, an ambient fault plan,
superstep fast-forwarding on and patched off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocators import (
    Allocator,
    DynamicEquiPartitioning,
    HierarchicalAllocator,
    RoundRobinAllocator,
)
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.overhead import ReallocationOverhead
from repro.dag import builders
from repro.engine.phased import PhasedJob
from repro.io.traces import traces_payload
from repro.runtime.faults import FAULTS_ENV_VAR
from repro.sim import sharded as sharded_loop
from repro.sim.jobs import JobSpec
from repro.sim.multi import MultiJobResult, simulate_job_set


def random_specs(
    n: int,
    seed: int,
    *,
    max_release: int = 4000,
    policy=None,
) -> list[JobSpec]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        phases = [
            (int(rng.integers(1, 32)), int(rng.integers(40, 400)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        out.append(
            JobSpec(
                job=PhasedJob(phases),
                feedback=policy or AControl(),
                release_time=int(rng.integers(0, max_release)),
            )
        )
    return out


def assert_identical(a: MultiJobResult, b: MultiJobResult) -> None:
    assert set(a.traces) == set(b.traces)
    assert list(a.traces) == list(b.traces)  # same finished-dict order
    assert a.quanta_elapsed == b.quanta_elapsed
    assert a.processors == b.processors
    assert a.released == b.released
    for jid, trace in a.traces.items():
        assert list(trace.records) == list(b.traces[jid].records), f"job {jid}"


def oracle(specs, make_allocator, processors, **kwargs) -> MultiJobResult:
    """The serial reference loop's run of the same set."""
    return simulate_job_set(
        specs, make_allocator(), processors, batch="off", **kwargs
    )


def hier(**overrides) -> HierarchicalAllocator:
    params = dict(group_size=12, rebalance_interval=8, imbalance_threshold=0.2)
    params.update(overrides)
    return HierarchicalAllocator(**params)


class TestHierarchicalShardIdentity:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_traces_identical_at_any_shard_count(self, shards):
        specs = random_specs(24, seed=101)
        flat = simulate_job_set(specs, hier(), 48, quantum_length=100)
        sharded = simulate_job_set(
            specs, hier(), 48, quantum_length=100, shards=shards
        )
        assert_identical(flat, sharded)
        assert_identical(flat, oracle(specs, hier, 48, quantum_length=100))

    def test_superstep_off_also_identical(self, monkeypatch):
        monkeypatch.setattr(sharded_loop, "_attempt_superstep", lambda *a, **k: 0)
        specs = random_specs(16, seed=23)
        flat = simulate_job_set(specs, hier(), 48, quantum_length=100)
        sharded = simulate_job_set(
            specs, hier(), 48, quantum_length=100, shards=3
        )
        assert_identical(flat, sharded)
        assert_identical(flat, oracle(specs, hier, 48, quantum_length=100))

    def test_migrations_cross_windows(self):
        """A tight rebalancing interval forces job migrations between
        windows (slots exported from one group kernel into another)."""
        specs = random_specs(20, seed=55, max_release=1)

        def tight() -> HierarchicalAllocator:
            return hier(rebalance_interval=2, imbalance_threshold=0.05)

        allocator = tight()
        flat = simulate_job_set(specs, allocator, 40, quantum_length=80)
        sharded = simulate_job_set(specs, tight(), 40, quantum_length=80, shards=4)
        assert_identical(flat, sharded)
        assert_identical(flat, oracle(specs, tight, 40, quantum_length=80))
        # the scenario actually rebalanced: membership moved at least once
        assert allocator.group_count > 1

    def test_reallocation_overhead(self):
        specs = random_specs(10, seed=3, max_release=1000)
        oh = ReallocationOverhead(per_processor=0.5, fixed=7)
        flat = simulate_job_set(specs, hier(), 32, quantum_length=60, overhead=oh)
        sharded = simulate_job_set(
            specs, hier(), 32, quantum_length=60, overhead=oh, shards=2
        )
        assert_identical(flat, sharded)
        assert_identical(
            flat, oracle(specs, hier, 32, quantum_length=60, overhead=oh)
        )

    def test_agreedy_policy(self):
        specs = random_specs(12, seed=31, policy=AGreedy())
        flat = simulate_job_set(specs, hier(), 36, quantum_length=70)
        sharded = simulate_job_set(specs, hier(), 36, quantum_length=70, shards=3)
        assert_identical(flat, sharded)
        assert_identical(flat, oracle(specs, hier, 36, quantum_length=70))

    def test_late_releases_hit_idle_machine(self):
        """Job gaps exercise the coordinator's idle fast-forward."""
        jobs = [PhasedJob([(4, 100)]), PhasedJob([(2, 50)]), PhasedJob([(8, 60)])]
        specs = [
            JobSpec(job=j, feedback=AControl(), release_time=r)
            for j, r in zip(jobs, [0, 20_000, 90_000])
        ]
        flat = simulate_job_set(specs, hier(group_size=8), 16, quantum_length=100)
        sharded = simulate_job_set(
            specs, hier(group_size=8), 16, quantum_length=100, shards=2
        )
        assert_identical(flat, sharded)
        assert_identical(
            flat,
            oracle(specs, lambda: hier(group_size=8), 16, quantum_length=100),
        )


def trace_bytes(result: MultiJobResult) -> bytes:
    """The run's traces serialized in finished order, plus its length."""
    return json.dumps(
        [result.quanta_elapsed, list(result.traces), traces_payload(result.traces)]
    ).encode()


#: Shared policy instances (the experiment idiom): jobs drawing the same
#: index share one object, so a set mixes whole-array batch feedback with
#: per-policy sub-batches.
POLICIES = (AControl(0.2), AControl(0.5), AGreedy(), AGreedy(3.0, 0.6))

job_strategy = st.tuples(
    # Phases long enough for requests to settle, so groups fast-forward
    # (saturated ones included) between events.
    st.lists(
        st.tuples(st.integers(1, 16), st.integers(20, 3000)), min_size=1, max_size=3
    ),
    st.integers(0, len(POLICIES) - 1),
    # Most jobs start at once; some arrive late, some after the machine
    # has gone idle.
    st.one_of(st.just(0), st.integers(1, 3000), st.integers(20_000, 30_000)),
)


class TestRouteProperty:
    @settings(max_examples=40, deadline=None)
    # Two saturated groups of settled ABG jobs whose DEQ rotation still
    # moves the bonus processor: a group superstep certified against the
    # machine-wide P instead of the group's budget shows up here.
    @example(
        jobs=[([(5, 3000)], 0, 0)] * 6,
        processors=16,
        group_size=8,
        rebalance_interval=5,
        imbalance_threshold=0.5,
        per_processor=0.0,
        fixed=0,
    )
    @given(
        jobs=st.lists(job_strategy, min_size=1, max_size=10),
        processors=st.integers(12, 48),
        group_size=st.integers(3, 24),
        rebalance_interval=st.integers(1, 5),
        imbalance_threshold=st.sampled_from([0.0, 0.1, 0.5]),
        per_processor=st.sampled_from([0.0, 0.5, 2.0]),
        fixed=st.integers(0, 20),
    )
    def test_per_group_machine_wide_and_serial_agree(
        self,
        jobs,
        processors,
        group_size,
        rebalance_interval,
        imbalance_threshold,
        per_processor,
        fixed,
    ):
        specs = [
            JobSpec(
                job=PhasedJob(phases), feedback=POLICIES[policy], release_time=release
            )
            for phases, policy, release in jobs
        ]

        def make() -> HierarchicalAllocator:
            return HierarchicalAllocator(
                group_size,
                rebalance_interval=rebalance_interval,
                imbalance_threshold=imbalance_threshold,
            )

        run = dict(
            quantum_length=50,
            overhead=ReallocationOverhead(per_processor=per_processor, fixed=fixed),
        )
        per_group = simulate_job_set(specs, make(), processors, shards=2, **run)
        machine_wide = simulate_job_set(specs, make(), processors, **run)
        serial = simulate_job_set(specs, make(), processors, batch="off", **run)
        assert trace_bytes(per_group) == trace_bytes(serial)
        assert trace_bytes(machine_wide) == trace_bytes(serial)


class TestFlatAllocatorsSharded:
    """Non-hierarchical array-native allocators run as a single group
    spanning the machine, in-process; per-group shard windows only mean
    something for a hierarchical allocator, so ``shards`` is refused."""

    @pytest.mark.parametrize(
        "make", [DynamicEquiPartitioning, RoundRobinAllocator]
    )
    def test_single_group_identity(self, make):
        specs = random_specs(18, seed=77)
        flat = simulate_job_set(specs, make(), 40, quantum_length=100)
        assert_identical(flat, oracle(specs, make, 40, quantum_length=100))
        with pytest.raises(ValueError, match="HierarchicalAllocator"):
            simulate_job_set(specs, make(), 40, quantum_length=100, shards=2)


class TestFaultTolerance:
    def test_ambient_fault_plan_never_reaches_windows(self, monkeypatch):
        """Per-group windows are plain calls, not supervised work units: a
        fault plan in the environment has nothing to fire on inside a
        simulation, so the traces match the clean run byte for byte."""
        specs = random_specs(16, seed=13)
        clean = simulate_job_set(specs, hier(), 36, quantum_length=100, shards=2)
        monkeypatch.setenv(
            FAULTS_ENV_VAR, "seed=3:rate=1.0:kinds=transient:max-failures=5"
        )
        faulted = simulate_job_set(specs, hier(), 36, quantum_length=100, shards=2)
        assert trace_bytes(faulted) == trace_bytes(clean)


class TestValidation:
    def test_bad_shard_values_rejected(self):
        specs = random_specs(4, seed=1)
        for count in (0, 1):
            with pytest.raises(ValueError, match="shard count"):
                simulate_job_set(specs, hier(), 16, shards=count)
        for mode in ("many", "auto", True):
            with pytest.raises(ValueError, match=f"unknown shards mode {mode!r}"):
                simulate_job_set(specs, hier(), 16, shards=mode)  # type: ignore[arg-type]

    def test_batch_off_conflicts_with_sharding(self):
        specs = random_specs(4, seed=1)
        with pytest.raises(ValueError, match="batched kernel"):
            simulate_job_set(specs, hier(), 16, shards=2, batch="off")

    def test_mapping_only_allocator_rejected(self):
        class MappingOnly(Allocator):
            fair = False
            non_reserving = False

            def allocate(self, requests, total):
                return {j: 1 for j in requests}

        specs = random_specs(4, seed=1)
        with pytest.raises(ValueError, match="HierarchicalAllocator"):
            simulate_job_set(specs, MappingOnly(), 16, shards=2)

    def test_non_batchable_job_rejected(self):
        dag = builders.fork_join_from_phases([(1, 2), (4, 3)])
        specs = [JobSpec(job=dag, feedback=AControl(), engine="reference")]
        with pytest.raises(ValueError, match="not batchable"):
            simulate_job_set(specs, hier(group_size=8), 16, shards=2)

    def test_duplicate_ids_rejected(self):
        spec = JobSpec(job=PhasedJob([(1, 1)]), feedback=AControl(), job_id=5)
        with pytest.raises(ValueError, match="duplicate"):
            simulate_job_set([spec, spec], hier(), 16, shards=2)


class TestScaleSmoke:
    def test_thousands_of_jobs_many_groups(self):
        """A reduced cut of the giant-scale scenario: hundreds of jobs over
        many groups, identical on per-group windows."""
        specs = random_specs(200, seed=91, max_release=2000)
        flat = simulate_job_set(
            specs, hier(group_size=64, rebalance_interval=25), 512,
            quantum_length=100,
        )
        sharded = simulate_job_set(
            specs, hier(group_size=64, rebalance_interval=25), 512,
            quantum_length=100, shards=4,
        )
        assert_identical(flat, sharded)
        assert_identical(
            flat,
            oracle(
                specs, lambda: hier(group_size=64, rebalance_interval=25), 512,
                quantum_length=100,
            ),
        )
        assert len(flat.traces) == 200
