"""Byte-identity proof of sharded execution against the serial oracle.

``simulate_job_set(..., shards=N)`` advances each group of a hierarchical
allocator through a window of quanta per supervised worker dispatch;
``shards=None`` runs the same window body as one machine-wide group
in-process.  Both are therefore also compared with ``batch="off"``, the
serial reference loop, which shares no code with the windowed loop.  The
claim mirrors the batch/superstep claims: traces are *bit-identical* at
any shard count, on every workload — mid-run releases, migrations at
rebalancing boundaries, fault-injected dispatches, serial and pooled
workers, superstep fast-forwarding on and patched off.
"""

from __future__ import annotations

import numpy as np
import pytest

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
    def test_identity_under_injected_faults(self, monkeypatch):
        """Transient worker faults retry the window from pristine state;
        the gathered traces stay byte-identical to the clean runs."""
        specs = random_specs(16, seed=13)
        flat = simulate_job_set(specs, hier(), 36, quantum_length=100)
        monkeypatch.setenv(
            FAULTS_ENV_VAR, "seed=11:rate=0.6:kinds=transient:max-failures=2"
        )
        sharded = simulate_job_set(
            specs, hier(), 36, quantum_length=100, shards=4, retries=3
        )
        assert_identical(flat, sharded)
        assert_identical(flat, oracle(specs, hier, 36, quantum_length=100))


class TestValidation:
    def test_bad_shard_values_rejected(self):
        specs = random_specs(4, seed=1)
        for count in (0, 1):
            with pytest.raises(ValueError, match="shard count"):
                simulate_job_set(specs, hier(), 16, shards=count)
        for mode in ("many", "auto", True):
            with pytest.raises(ValueError, match=f"unknown shards mode {mode!r}"):
                simulate_job_set(specs, hier(), 16, shards=mode)  # type: ignore[arg-type]

    def test_supervision_arguments_need_shards(self):
        specs = random_specs(4, seed=1)
        with pytest.raises(ValueError, match="need shards"):
            simulate_job_set(specs, hier(), 16, task_timeout=5.0)
        with pytest.raises(ValueError, match="need shards"):
            simulate_job_set(specs, hier(), 16, retries=2)

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
        many groups, identical at 4 shards."""
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
