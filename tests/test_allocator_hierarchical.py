"""Unit and determinism tests for the hierarchical sharded allocator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocators import HierarchicalAllocator
from repro.allocators.equipartition import DynamicEquiPartitioning


def arrays(requests: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array(sorted(requests), dtype=np.int64)
    reqs = np.array([requests[int(j)] for j in ids], dtype=np.int64)
    return ids, reqs


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HierarchicalAllocator(0)
        with pytest.raises(ValueError):
            HierarchicalAllocator(8, rebalance_interval=0)
        with pytest.raises(ValueError):
            HierarchicalAllocator(8, imbalance_threshold=-0.1)

    def test_group_partition_budgets(self):
        alloc = HierarchicalAllocator(group_size=16)
        alloc.allocate({0: 4}, 50)
        # ceil(50/16) = 4 groups; 50 = 13+13+12+12
        assert alloc.group_count == 4
        assert alloc.group_budgets() == [13, 13, 12, 12]
        assert sum(alloc.group_budgets()) == 50

    def test_machine_size_pinned(self):
        alloc = HierarchicalAllocator(group_size=8)
        alloc.allocate({0: 1}, 32)
        with pytest.raises(ValueError, match="bound to P=32"):
            alloc.allocate({0: 1}, 64)

    def test_repr_round_trips_parameters(self):
        alloc = HierarchicalAllocator(4, rebalance_interval=7, imbalance_threshold=0.5)
        assert "group_size=4" in repr(alloc)
        assert "rebalance_interval=7" in repr(alloc)


class TestValidation:
    def test_zero_request_rejected(self):
        alloc = HierarchicalAllocator(group_size=8)
        with pytest.raises(ValueError, match="at least one processor"):
            alloc.allocate({0: 4, 1: 0}, 16)

    def test_too_many_jobs_rejected(self):
        alloc = HierarchicalAllocator(group_size=2)
        with pytest.raises(ValueError, match=r"\|J\| <= P"):
            alloc.allocate({j: 1 for j in range(5)}, 4)

    def test_invalid_total(self):
        alloc = HierarchicalAllocator(group_size=8)
        with pytest.raises(ValueError):
            alloc.allocate({0: 1}, 0)


class TestMembership:
    def test_admission_spreads_by_load_ratio(self):
        alloc = HierarchicalAllocator(group_size=4)
        alloc.allocate({j: 2 for j in range(4)}, 8)  # 2 groups of 4
        members = alloc.membership()
        # round-robin by count/budget with ties to the lowest index
        assert members == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_membership_sticky_between_boundaries(self):
        alloc = HierarchicalAllocator(group_size=4, rebalance_interval=100)
        alloc.allocate({j: 8 for j in range(4)}, 8)
        before = alloc.membership()
        for _ in range(5):
            alloc.allocate({j: 8 for j in range(4)}, 8)
        assert alloc.membership() == before

    def test_departed_jobs_are_purged(self):
        alloc = HierarchicalAllocator(group_size=4)
        alloc.allocate({j: 2 for j in range(4)}, 8)
        alloc.allocate({0: 2, 3: 2}, 8)
        assert set(alloc.membership()) == {0, 3}

    def test_group_capacity_respected(self):
        # 2 groups x 2 processors: each group holds at most 2 jobs.
        alloc = HierarchicalAllocator(group_size=2)
        alloc.allocate({j: 1 for j in range(4)}, 4)
        counts = [0, 0]
        for g in alloc.membership().values():
            counts[g] += 1
        assert counts == [2, 2]


class TestAllocation:
    def test_every_job_gets_at_least_one(self):
        rng = np.random.default_rng(0)
        alloc = HierarchicalAllocator(group_size=8)
        for _ in range(20):
            n = int(rng.integers(1, 24))
            requests = {j: int(rng.integers(1, 40)) for j in range(n)}
            grants = alloc.allocate(requests, 24)
            assert all(g >= 1 for g in grants.values())
            assert sum(grants.values()) <= 24
            for j, g in grants.items():
                assert g <= max(requests[j], 1) or g <= requests[j]

    def test_scalar_and_array_paths_lockstep(self):
        """allocate() delegates to allocate_batch(): same instance, the two
        entry points interleave freely and agree exactly."""
        a = HierarchicalAllocator(group_size=8, rebalance_interval=3)
        b = HierarchicalAllocator(group_size=8, rebalance_interval=3)
        rng = np.random.default_rng(42)
        requests = {j: int(rng.integers(1, 30)) for j in range(10)}
        for q in range(12):
            if rng.random() < 0.3:  # churn the job set
                requests = {
                    j: int(rng.integers(1, 30))
                    for j in sorted(rng.choice(16, size=8, replace=False).tolist())
                }
            mapping = a.allocate(requests, 32)
            ids, reqs = arrays(requests)
            grants = b.allocate_batch(ids, reqs, 32)
            assert mapping == {int(j): int(g) for j, g in zip(ids, grants)}

    def test_single_group_matches_flat_deq(self):
        """With one group covering the whole machine the hierarchy is
        exactly its inner DEQ."""
        hier = HierarchicalAllocator(group_size=64)
        deq = DynamicEquiPartitioning()
        rng = np.random.default_rng(9)
        for _ in range(10):
            requests = {j: int(rng.integers(1, 50)) for j in range(6)}
            assert hier.allocate(requests, 64) == deq.allocate(requests, 64)

    def test_deterministic_across_instances(self):
        runs = []
        for _ in range(2):
            alloc = HierarchicalAllocator(group_size=8, rebalance_interval=2)
            history = []
            rng = np.random.default_rng(5)
            for _ in range(10):
                requests = {j: int(rng.integers(1, 20)) for j in range(8)}
                history.append(alloc.allocate(requests, 24))
            runs.append(history)
        assert runs[0] == runs[1]


class TestRebalancing:
    def test_imbalance_triggers_migration(self):
        # Two groups of 8.  Jobs land alternately; make group 0's desire
        # huge and group 1's tiny, then cross the boundary.
        alloc = HierarchicalAllocator(
            group_size=8, rebalance_interval=2, imbalance_threshold=0.1
        )
        requests = {0: 16, 1: 1, 2: 16, 3: 1}
        alloc.allocate(requests, 16)  # quantum 0: admit 0,2 -> g0; 1,3 -> g1
        assert alloc.membership() == {0: 0, 1: 1, 2: 0, 3: 1}
        alloc.allocate(requests, 16)  # quantum 1
        alloc.allocate(requests, 16)  # quantum 2: boundary, rebalance runs
        members = alloc.membership()
        assert members != {0: 0, 1: 1, 2: 0, 3: 1}
        # ties on request break to the lowest id: job 0 leaves group 0,
        # then job 1 flows back to level the pair
        assert members == {0: 1, 1: 0, 2: 0, 3: 1}

    def test_rebalance_is_self_quenching(self):
        alloc = HierarchicalAllocator(
            group_size=8, rebalance_interval=1, imbalance_threshold=0.1
        )
        requests = {0: 12, 1: 2, 2: 12, 3: 2}
        for _ in range(6):
            alloc.allocate(requests, 16)
        settled = alloc.membership()
        for _ in range(6):
            alloc.allocate(requests, 16)
        assert alloc.membership() == settled

    def test_balanced_load_never_migrates(self):
        alloc = HierarchicalAllocator(group_size=8, rebalance_interval=1)
        requests = {j: 8 for j in range(4)}
        alloc.allocate(requests, 16)
        before = alloc.membership()
        for _ in range(5):
            alloc.allocate(requests, 16)
        assert alloc.membership() == before

    def test_quanta_to_rebalance_counts_down(self):
        alloc = HierarchicalAllocator(group_size=8, rebalance_interval=5)
        assert alloc.quanta_to_rebalance() == 5
        alloc.allocate({0: 4}, 16)
        assert alloc.quanta_to_rebalance() == 4
        for _ in range(4):
            alloc.allocate({0: 4}, 16)
        # quantum counter at 5: the boundary allocation has run
        assert alloc.quanta_to_rebalance() == 5


class TestFixedPoint:
    def _probe_args(self, alloc, requests, total):
        ids, reqs = arrays(requests)
        grants_map = alloc.allocate(requests, total)
        grants = np.array([grants_map[int(j)] for j in ids], dtype=np.int64)
        return ids, reqs, grants, total

    def test_probe_certifies_stable_allocation(self):
        alloc = HierarchicalAllocator(group_size=8, rebalance_interval=100)
        requests = {0: 4, 1: 4, 2: 4, 3: 4}
        ids, reqs, grants, total = self._probe_args(alloc, requests, 16)
        span = alloc.fixed_point_probe(ids, reqs, grants, total, 10)
        assert span == 10

    def test_probe_truncates_at_rebalance_boundary(self):
        alloc = HierarchicalAllocator(group_size=8, rebalance_interval=5)
        requests = {0: 4, 1: 4, 2: 4, 3: 4}
        ids, reqs, grants, total = self._probe_args(alloc, requests, 16)
        # one allocation served: 4 quanta remain before the boundary
        assert alloc.fixed_point_probe(ids, reqs, grants, total, 100) == 4
        # land exactly on the boundary: nothing may be skipped
        for _ in range(4):
            alloc.allocate(requests, 16)
        assert alloc.quanta_to_rebalance() == 5
        assert alloc._quantum % alloc.rebalance_interval == 0
        assert alloc.fixed_point_probe(ids, reqs, grants, total, 100) == 0

    def test_probe_is_side_effect_free(self):
        alloc = HierarchicalAllocator(group_size=8, rebalance_interval=50)
        requests = {0: 9, 1: 9}
        ids, reqs, grants, total = self._probe_args(alloc, requests, 16)
        before = alloc.allocate(requests, 16)
        alloc2 = HierarchicalAllocator(group_size=8, rebalance_interval=50)
        ids2, reqs2, grants2, _ = self._probe_args(alloc2, requests, 16)
        for _ in range(3):
            alloc2.fixed_point_probe(ids2, reqs2, grants2, 16, 7)
        assert alloc2.allocate(requests, 16) == before

    def test_advance_matches_repeated_calls(self):
        """Probe+advance over a span leaves the same state as serving the
        span one allocation at a time."""
        requests = {0: 9, 1: 9, 2: 3, 3: 3}
        stepped = HierarchicalAllocator(group_size=8, rebalance_interval=50)
        jumped = HierarchicalAllocator(group_size=8, rebalance_interval=50)
        ids, reqs = arrays(requests)
        g0 = stepped.allocate_batch(ids, reqs, 16)
        g1 = jumped.allocate_batch(ids, reqs, 16)
        assert (g0 == g1).all()
        span = jumped.allocation_fixed_point(ids, reqs, g1, 16, 6)
        assert span == 6
        for _ in range(span):
            stepped.allocate_batch(ids, reqs, 16)
        assert (
            stepped.allocate_batch(ids, reqs, 16)
            == jumped.allocate_batch(ids, reqs, 16)
        ).all()
        assert stepped._quantum == jumped._quantum

    def test_probe_unbound_returns_zero(self):
        alloc = HierarchicalAllocator(group_size=8)
        ids = np.array([0], dtype=np.int64)
        one = np.array([1], dtype=np.int64)
        assert alloc.fixed_point_probe(ids, one, one, 16, 5) == 0


class TestShardedProtocol:
    def test_begin_window_returns_membership(self):
        alloc = HierarchicalAllocator(group_size=4)
        ids = np.array([3, 7, 9], dtype=np.int64)
        reqs = np.array([2, 2, 2], dtype=np.int64)
        membership = alloc.begin_window(ids, reqs, 8)
        assert set(membership) == {3, 7, 9}
        assert membership == alloc.membership()

    def test_advance_window_moves_boundary(self):
        alloc = HierarchicalAllocator(group_size=4, rebalance_interval=10)
        ids = np.array([0], dtype=np.int64)
        reqs = np.array([2], dtype=np.int64)
        alloc.begin_window(ids, reqs, 8)
        alloc.advance_window(7)
        assert alloc.quanta_to_rebalance() == 3

    def test_group_allocator_round_trip(self):
        alloc = HierarchicalAllocator(group_size=4)
        alloc.allocate({0: 2, 1: 2}, 8)
        inner = alloc.group_allocator(0)
        assert isinstance(inner, DynamicEquiPartitioning)
