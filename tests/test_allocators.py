"""Unit and property tests for OS allocators and availability policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators.availability import (
    ConstantAvailability,
    InverseParallelismAvailability,
    TraceAvailability,
)
from repro.allocators.base import validate_allocation
from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.allocators.roundrobin import RoundRobinAllocator

from conftest import make_record


# ---------------------------------------------------------------------------
# Availability policies
# ---------------------------------------------------------------------------


class TestConstantAvailability:
    def test_constant(self):
        p = ConstantAvailability(64)
        assert p.available(1, None) == 64
        assert p.available(99, make_record()) == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantAvailability(0)


class TestInverseParallelismAvailability:
    def test_high_before_first_quantum(self):
        p = InverseParallelismAvailability(high=100, low=2, cutoff=4.0)
        assert p.available(1, None) == 100

    def test_high_when_parallelism_low(self):
        p = InverseParallelismAvailability(high=100, low=2, cutoff=4.0)
        serial = make_record(request=1.0, allotment=1, work=1000, span=1000.0)
        assert p.available(2, serial) == 100

    def test_low_when_parallelism_high(self):
        p = InverseParallelismAvailability(high=100, low=2, cutoff=4.0)
        parallel = make_record(request=4.0, allotment=4, work=4000, span=500.0)  # A=8
        assert p.available(2, parallel) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            InverseParallelismAvailability(high=2, low=5, cutoff=1.0)
        with pytest.raises(ValueError):
            InverseParallelismAvailability(high=5, low=2, cutoff=-1.0)


class TestTraceAvailability:
    def test_replay_and_repeat_last(self):
        p = TraceAvailability([4, 7, 2])
        assert [p.available(q, None) for q in (1, 2, 3, 4, 5)] == [4, 7, 2, 2, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceAvailability([])
        with pytest.raises(ValueError):
            TraceAvailability([1, 0])


# ---------------------------------------------------------------------------
# Dynamic equi-partitioning
# ---------------------------------------------------------------------------


class TestDEQBasics:
    def test_all_requests_fit(self):
        deq = DynamicEquiPartitioning()
        alloc = deq.allocate({1: 10, 2: 20}, 100)
        assert alloc == {1: 10, 2: 20}

    def test_equal_split_when_all_want_more(self):
        deq = DynamicEquiPartitioning()
        alloc = deq.allocate({1: 100, 2: 100, 3: 100}, 90)
        assert alloc == {1: 30, 2: 30, 3: 30}

    def test_small_requester_declines_and_redistribution(self):
        deq = DynamicEquiPartitioning()
        alloc = deq.allocate({1: 5, 2: 100, 3: 100}, 99)
        assert alloc[1] == 5
        assert alloc[2] == 47 and alloc[3] == 47

    def test_cascading_redistribution(self):
        deq = DynamicEquiPartitioning()
        # shares: 100/4=25 -> job1 (10) satisfied; 90/3=30 -> job2 (30)
        # satisfied; 60/2=30 each for the big two
        alloc = deq.allocate({1: 10, 2: 30, 3: 99, 4: 99}, 100)
        assert alloc == {1: 10, 2: 30, 3: 30, 4: 30}

    def test_remainder_rotation(self):
        deq = DynamicEquiPartitioning()
        a1 = deq.allocate({1: 10, 2: 10, 3: 10}, 8)
        a2 = deq.allocate({1: 10, 2: 10, 3: 10}, 8)
        a3 = deq.allocate({1: 10, 2: 10, 3: 10}, 8)
        # 8 = 2+3+3 split; the extra processors rotate across quanta
        for a in (a1, a2, a3):
            assert sorted(a.values()) == [2, 3, 3]
        assert [a1[1], a2[1], a3[1]].count(3) == 2  # job 1 favored in 2 of 3

    def test_single_job(self):
        deq = DynamicEquiPartitioning()
        assert deq.allocate({7: 13}, 128) == {7: 13}
        assert deq.allocate({7: 500}, 128) == {7: 128}

    def test_empty_requests(self):
        assert DynamicEquiPartitioning().allocate({}, 10) == {}

    def test_more_jobs_than_processors_rejected(self):
        with pytest.raises(ValueError):
            DynamicEquiPartitioning().allocate({1: 1, 2: 1, 3: 1}, 2)

    def test_zero_request_rejected(self):
        with pytest.raises(ValueError):
            DynamicEquiPartitioning().allocate({1: 0}, 4)

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            DynamicEquiPartitioning().allocate({1: 1}, 0)

    def test_flags(self):
        deq = DynamicEquiPartitioning()
        assert deq.fair and deq.non_reserving


requests_strategy = st.dictionaries(
    keys=st.integers(0, 50),
    values=st.integers(1, 200),
    min_size=1,
    max_size=16,
)


class TestDEQProperties:
    @settings(max_examples=200, deadline=None)
    @given(requests_strategy, st.integers(16, 300))
    def test_invariants(self, requests, total):
        deq = DynamicEquiPartitioning()
        alloc = deq.allocate(requests, total)
        validate_allocation(requests, alloc, total)

    @settings(max_examples=200, deadline=None)
    @given(requests_strategy, st.integers(16, 300))
    def test_non_reserving(self, requests, total):
        """No processor idles while some job is still deprived."""
        deq = DynamicEquiPartitioning()
        alloc = deq.allocate(requests, total)
        leftover = total - sum(alloc.values())
        if leftover > 0:
            assert all(alloc[j] == requests[j] for j in requests)

    @settings(max_examples=200, deadline=None)
    @given(requests_strategy, st.integers(16, 300))
    def test_fair(self, requests, total):
        """Deprived jobs all receive (nearly) equal shares, and no satisfied
        job gets more than any deprived job's share."""
        deq = DynamicEquiPartitioning()
        alloc = deq.allocate(requests, total)
        deprived = [alloc[j] for j in requests if alloc[j] < requests[j]]
        if deprived:
            assert max(deprived) - min(deprived) <= 1
            top = min(deprived)
            for j in requests:
                if alloc[j] == requests[j]:
                    assert alloc[j] <= top + 1


class TestDEQArrayPath:
    """allocate_batch must agree with allocate bit for bit — outputs AND
    internal rotation state — because the simulator mixes both entry points
    across quanta."""

    @staticmethod
    def _random_case(rng):
        n = int(rng.integers(1, 17))
        total = int(rng.integers(n, 200))
        ids = np.sort(rng.choice(1000, size=n, replace=False)).astype(np.int64)
        reqs = rng.integers(1, 60, size=n).astype(np.int64)
        return ids, reqs, total

    def test_matches_mapping_path_with_rotation_lockstep(self):
        rng = np.random.default_rng(7)
        dict_deq = DynamicEquiPartitioning()
        arr_deq = DynamicEquiPartitioning()
        for _ in range(300):
            ids, reqs, total = self._random_case(rng)
            expected = dict_deq.allocate(
                {int(i): int(r) for i, r in zip(ids, reqs)}, total
            )
            got = arr_deq.allocate_batch(ids, reqs, total)
            assert got is not None
            assert got.tolist() == [expected[int(i)] for i in ids]
            assert arr_deq._rotation == dict_deq._rotation

    def test_entry_points_interchangeable_on_one_instance(self):
        """Alternating entry points on one allocator evolves the same state
        as a dict-only twin."""
        rng = np.random.default_rng(8)
        mixed = DynamicEquiPartitioning()
        twin = DynamicEquiPartitioning()
        for step in range(100):
            ids, reqs, total = self._random_case(rng)
            requests = {int(i): int(r) for i, r in zip(ids, reqs)}
            expected = twin.allocate(requests, total)
            if step % 2:
                got = dict(mixed.allocate(requests, total))
            else:
                arr = mixed.allocate_batch(ids, reqs, total)
                got = {int(i): int(a) for i, a in zip(ids, arr)}
            assert got == expected

    def test_validation_errors_match_mapping_path(self):
        deq = DynamicEquiPartitioning()
        one = np.asarray([5], dtype=np.int64)
        with pytest.raises(ValueError, match="at least one processor"):
            deq.allocate_batch(one, np.asarray([3], dtype=np.int64), 0)
        with pytest.raises(ValueError, match="job 5 must request at least one"):
            deq.allocate_batch(one, np.asarray([0], dtype=np.int64), 4)
        ids = np.arange(3, dtype=np.int64)
        reqs = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError, match=r"\|J\| <= P"):
            deq.allocate_batch(ids, reqs, 2)

    def test_base_allocator_has_no_array_path(self):
        from repro.allocators.base import Allocator

        class MappingOnly(Allocator):
            def allocate(self, requests, total):
                return {j: 1 for j in requests}

        assert (
            MappingOnly().allocate_batch(
                np.asarray([1], dtype=np.int64), np.asarray([2], dtype=np.int64), 4
            )
            is None
        )


class TestRoundRobinArrayPath:
    """Round-robin's allocate_batch must agree with allocate bit for bit —
    outputs AND rotation state — across interleaved entry points."""

    def test_matches_mapping_path_across_quanta(self):
        rng = np.random.default_rng(7)
        scalar = RoundRobinAllocator()
        batched = RoundRobinAllocator()
        mixed = RoundRobinAllocator()
        for q in range(40):
            n = int(rng.integers(1, 17))
            total = int(rng.integers(n, 200))
            ids = np.sort(rng.choice(1000, size=n, replace=False)).astype(np.int64)
            reqs = rng.integers(1, 60, size=n).astype(np.int64)
            requests = {int(j): int(d) for j, d in zip(ids, reqs)}
            expected = scalar.allocate(requests, total)
            arr = batched.allocate_batch(ids, reqs, total)
            assert arr is not None and arr.dtype == np.int64
            assert {int(i): int(a) for i, a in zip(ids, arr)} == expected
            if q % 2 == 0:
                got = dict(mixed.allocate(requests, total))
            else:
                marr = mixed.allocate_batch(ids, reqs, total)
                got = {int(i): int(a) for i, a in zip(ids, marr)}
            assert got == expected
        assert batched._rotation == scalar._rotation == mixed._rotation

    def test_empty_batch_does_not_advance_rotation(self):
        rr = RoundRobinAllocator()
        empty = np.zeros(0, dtype=np.int64)
        out = rr.allocate_batch(empty, empty, 8)
        assert out is not None and out.size == 0
        assert rr._rotation == 0 and rr.allocate({}, 8) == {}

    def test_validation_errors_match_mapping_path(self):
        rr = RoundRobinAllocator()
        one = np.asarray([5], dtype=np.int64)
        with pytest.raises(ValueError, match="at least one processor"):
            rr.allocate_batch(one, np.asarray([3], dtype=np.int64), 0)
        with pytest.raises(ValueError, match="job 5 must request at least one"):
            rr.allocate_batch(one, np.asarray([0], dtype=np.int64), 4)
        ids = np.arange(3, dtype=np.int64)
        reqs = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError, match=r"\|J\| <= P"):
            rr.allocate_batch(ids, reqs, 2)


class TestValidateAllocationArrays:
    ids = np.asarray([3, 7, 9], dtype=np.int64)
    reqs = np.asarray([4, 10, 2], dtype=np.int64)

    def test_valid_passes(self):
        from repro.allocators.base import validate_allocation_arrays

        validate_allocation_arrays(
            self.ids, self.reqs, np.asarray([4, 6, 2], dtype=np.int64), 12
        )

    def test_shape_mismatch(self):
        from repro.allocators.base import validate_allocation_arrays

        with pytest.raises(AssertionError, match="exactly the requesting jobs"):
            validate_allocation_arrays(
                self.ids, self.reqs, np.asarray([4, 6], dtype=np.int64), 12
            )

    def test_oversubscription(self):
        from repro.allocators.base import validate_allocation_arrays

        with pytest.raises(AssertionError, match="more processors than exist"):
            validate_allocation_arrays(
                self.ids, self.reqs, np.asarray([4, 10, 2], dtype=np.int64), 10
            )

    def test_negative_allotment_names_job(self):
        from repro.allocators.base import validate_allocation_arrays

        with pytest.raises(AssertionError, match="job 7 got a negative"):
            validate_allocation_arrays(
                self.ids, self.reqs, np.asarray([4, -1, 2], dtype=np.int64), 12
            )

    def test_over_request_names_job(self):
        from repro.allocators.base import validate_allocation_arrays

        with pytest.raises(AssertionError, match="job 9 got more than it requested"):
            validate_allocation_arrays(
                self.ids, self.reqs, np.asarray([4, 5, 3], dtype=np.int64), 20
            )

    def test_starved_job_with_enough_processors(self):
        from repro.allocators.base import validate_allocation_arrays

        with pytest.raises(AssertionError, match="every job must receive"):
            validate_allocation_arrays(
                self.ids, self.reqs, np.asarray([4, 8, 0], dtype=np.int64), 12
            )


# ---------------------------------------------------------------------------
# Round-robin
# ---------------------------------------------------------------------------


class TestRoundRobin:
    def test_equal_share_capped_by_request(self):
        rr = RoundRobinAllocator()
        alloc = rr.allocate({1: 2, 2: 100}, 10)
        assert alloc[1] == 2
        assert alloc[2] == 5  # no redistribution of job 1's declined share

    def test_not_non_reserving(self):
        rr = RoundRobinAllocator()
        assert rr.fair and not rr.non_reserving

    def test_remainder_rotates(self):
        rr = RoundRobinAllocator()
        a1 = rr.allocate({1: 10, 2: 10, 3: 10}, 10)
        a2 = rr.allocate({1: 10, 2: 10, 3: 10}, 10)
        assert sorted(a1.values()) == [3, 3, 4]
        assert a1 != a2 or True  # rotation shifts the bonus

    @settings(max_examples=150, deadline=None)
    @given(requests_strategy, st.integers(16, 300))
    def test_invariants(self, requests, total):
        rr = RoundRobinAllocator()
        alloc = rr.allocate(requests, total)
        validate_allocation(requests, alloc, total)

    def test_more_jobs_than_processors_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinAllocator().allocate({1: 1, 2: 1}, 1)

    def test_empty(self):
        assert RoundRobinAllocator().allocate({}, 5) == {}
