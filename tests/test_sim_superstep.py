"""Superstep fast-forwarding, kernel slot state, and columnar traces.

The superstep layer's claim mirrors the batched kernel's: whole-run results
— every trace, every :class:`QuantumRecord` field, artifact bytes — are
*bit-identical* whether quanta execute one at a time (``per_quantum``
patches :func:`repro.sim.sharded._attempt_superstep` to refuse every
attempt) or fast-forward in closed form whenever the system provably
repeats, as the windowed loop always does.  These tests run three-way
cross-validation (serial / per-quantum batched / superstep) over randomized
job sets including mid-run releases, overhead, mixed policies, and strict
mode; unit-test the closed forms against brute-force per-quantum execution;
and pin the allocator/feedback fixed-point contracts the layer composes.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.allocators.hierarchical import HierarchicalAllocator
from repro.allocators.machines import DisjointMachines
from repro.allocators.roundrobin import RoundRobinAllocator
from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.core.columnar import TraceColumns
from repro.core.feedback import FeedbackPolicy
from repro.core.overhead import ReallocationOverhead
from repro.core.reference import FixedRequest
from repro.core.types import JobTrace, QuantumRecord
from repro.dag.builders import fork_join_from_phases
from repro.engine.batched import BatchedDagExecutor
from repro.engine.explicit import ExplicitExecutor
from repro.engine.phased import PhasedJob
from repro.sim import sharded
from repro.sim.jobs import JobSpec, closed_form_phases
from repro.sim.multi import simulate_job_set
from repro.sim.multi_batched import MultiBatchKernel
from repro.sim.superstep import QuantumLog, pure_quantum_counts

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _count_build_records(monkeypatch) -> list[int]:
    """Record the size of every ``TraceColumns.build_records`` call from
    now on; the returned list stays empty while nothing builds a record."""
    calls: list[int] = []
    original = TraceColumns.build_records

    def counted(self, *args):
        built = original(self, *args)
        calls.append(len(built))
        return built

    monkeypatch.setattr(TraceColumns, "build_records", counted)
    return calls


def assert_results_identical(a, b) -> None:
    """Byte-for-byte equality of two MultiJobResult objects."""
    assert list(a.traces) == list(b.traces)
    assert a.quanta_elapsed == b.quanta_elapsed
    assert a.released == b.released
    for jid in a.traces:
        ta, tb = a.traces[jid], b.traces[jid]
        assert (ta.release_time, ta.job_id, ta.quantum_length) == (
            tb.release_time,
            tb.job_id,
            tb.quantum_length,
        )
        assert ta.records == tb.records


@contextmanager
def per_quantum():
    """Turn superstep fast-forwarding off: every attempt skips 0 quanta."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sharded, "_attempt_superstep", lambda *a, **k: 0)
        yield


def run_three_way(make_specs, processors, *, allocator=DynamicEquiPartitioning,
                  **kwargs):
    """Serial, per-quantum batched, and superstep runs of one job set must
    agree byte for byte (fresh specs/allocator per run — DEQ is stateful)."""
    serial = simulate_job_set(
        make_specs(), allocator(), processors, batch="off", **kwargs
    )
    with per_quantum():
        slow = simulate_job_set(make_specs(), allocator(), processors, **kwargs)
    fast = simulate_job_set(make_specs(), allocator(), processors, **kwargs)
    assert_results_identical(serial, slow)
    assert_results_identical(serial, fast)
    return fast


def random_phased_job(rng: np.random.Generator) -> PhasedJob:
    phases: list[tuple[int, int]] = []
    for _ in range(int(rng.integers(1, 4))):
        phases.append((1, int(rng.integers(1, 6))))
        phases.append((int(rng.integers(2, 10)), int(rng.integers(1, 8))))
    return PhasedJob(phases)


def single_slot_kernel(phases, request: float) -> MultiBatchKernel:
    kernel = MultiBatchKernel()
    spec = JobSpec(job=PhasedJob(phases), feedback=FixedRequest(request))
    profile = closed_form_phases(spec.job)
    assert profile is not None
    kernel.admit([(0, 0, spec, JobTrace(quantum_length=100, job_id=0), profile, request)])
    return kernel


class CountingDEQ(DynamicEquiPartitioning):
    """DEQ that counts allocate_batch calls — supersteps skip allocations,
    so the count observes whether fast-forwarding actually engaged."""

    def __init__(self) -> None:
        super().__init__()
        self.batch_calls = 0

    def allocate_batch(self, ids, requests, total):
        self.batch_calls += 1
        return super().allocate_batch(ids, requests, total)


# ---------------------------------------------------------------------------
# pure_quantum_counts: closed form vs per-quantum execution
# ---------------------------------------------------------------------------


class TestPureQuantumCounts:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_quantum_execution(self, seed):
        """For random single-segment states, the counted quanta execute as
        predicted (work=delta, steps=L) and the very next quantum differs
        or completes a segment — the definition of an event."""
        rng = np.random.default_rng(seed)
        L = int(rng.integers(2, 20))
        w = int(rng.integers(1, 12))
        levels = int(rng.integers(1, 4000))
        a = int(rng.integers(1, 16))
        kernel = single_slot_kernel([(w, levels)], float(a))
        alloc = np.asarray([a], dtype=np.int64)
        plan = kernel.superstep_plan(alloc, L)
        overhead = ReallocationOverhead()  # free
        if plan is None:
            # the first quantum already reaches an event; nothing to check
            # beyond it executing at all
            kernel.execute_quantum(alloc, L, overhead)
            return
        n = int(plan.quanta[0])
        for _ in range(n):
            out = kernel.execute_quantum(alloc, L, overhead)
            assert int(out.work[0]) == int(plan.delta[0])
            assert float(out.span[0]) == float(plan.span[0])
            assert int(out.steps[0]) == L
            assert not bool(out.finished[0])
        # quantum n+1 must be an event: different record or a completion
        out = kernel.execute_quantum(alloc, L, overhead)
        assert (
            int(out.work[0]) != int(plan.delta[0])
            or int(out.steps[0]) != L
            or bool(out.finished[0])
            or int(kernel._cur[0]) > 0  # segment transition inside it
        )

    def test_regime2_exact_boundary_excluded(self):
        """A quantum that drains the segment exactly at the boundary is an
        event and never counted."""
        # w=4, one level of 40 tasks in regime 2 reach: a=4, L=10 -> one
        # quantum finishes exactly; counts must be 0.
        quanta, delta = pure_quantum_counts(
            alloc=np.asarray([4], dtype=np.int64),
            width=np.asarray([4], dtype=np.int64),
            seg_remaining=np.asarray([40], dtype=np.int64),
            to_boundary=np.asarray([0], dtype=np.int64),
            regime1=np.asarray([False]),
            length=10,
        )
        assert int(quanta[0]) == 0

    def test_apply_matches_repeated_execute(self):
        """apply_superstep leaves exactly the state k execute_quantum calls
        would, across random states."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            L = int(rng.integers(2, 16))
            phases = [
                (int(rng.integers(1, 9)), int(rng.integers(50, 4000)))
                for _ in range(int(rng.integers(1, 3)))
            ]
            a = int(rng.integers(1, 12))
            alloc = np.asarray([a], dtype=np.int64)
            overhead = ReallocationOverhead()
            k1 = single_slot_kernel(phases, float(a))
            k2 = single_slot_kernel(phases, float(a))
            # one real quantum first (sets prev_allot like the simulator)
            k1.execute_quantum(alloc, L, overhead)
            k2.execute_quantum(alloc, L, overhead)
            plan = k1.superstep_plan(alloc, L)
            if plan is None:
                continue
            k = min(int(plan.quanta[0]), 50)
            k1.bump_quantum()
            k1.apply_superstep(k, plan, alloc, L)
            k2.bump_quantum()
            for _ in range(k):
                k2.execute_quantum(alloc, L, overhead)
                k2.bump_quantum()
            for name in ("_cur", "_done", "_rem", "_prev_allot", "next_q"):
                assert np.array_equal(getattr(k1, name), getattr(k2, name)), name


# ---------------------------------------------------------------------------
# Allocator fixed points
# ---------------------------------------------------------------------------


class TestAllocationFixedPoint:
    def _grants(self, alloc, ids, req, total):
        out = alloc.allocate_batch(ids, req, total)
        assert out is not None
        return out

    def test_deq_all_satisfied_any_horizon(self):
        deq = DynamicEquiPartitioning()
        ids = np.arange(4, dtype=np.int64)
        req = np.asarray([3, 5, 2, 7], dtype=np.int64)  # all <= share
        g = self._grants(deq, ids, req, 64)
        rot = deq._rotation
        k = deq.allocation_fixed_point(ids, req, g, 64, 1000)
        assert k == 1000
        assert deq._rotation == rot  # satisfied waterfall never rotates
        # grants really repeat
        assert np.array_equal(deq.allocate_batch(ids, req, 64), g)

    def test_deq_rotating_exact_split_advances_rotation(self):
        deq = DynamicEquiPartitioning()
        ids = np.arange(4, dtype=np.int64)
        req = np.asarray([100, 100, 100, 100], dtype=np.int64)  # extra == 0
        g = self._grants(deq, ids, req, 64)
        rot = deq._rotation
        k = deq.allocation_fixed_point(ids, req, g, 64, 7)
        assert k == 7
        assert deq._rotation == rot + 7  # state advanced wholesale
        assert np.array_equal(deq.allocate_batch(ids, req, 64), g)

    def test_deq_rotating_remainder_never_fixed(self):
        deq = DynamicEquiPartitioning()
        ids = np.arange(3, dtype=np.int64)
        req = np.asarray([100, 100, 100], dtype=np.int64)  # 64 % 3 != 0
        g = self._grants(deq, ids, req, 64)
        assert deq.allocation_fixed_point(ids, req, g, 64, 7) == 0

    def test_deq_sneaky_share_plus_one(self):
        """Every unsatisfied job requesting share+1 grants requests exactly,
        yet the bonus rotates — grants alone cannot prove a fixed point."""
        deq = DynamicEquiPartitioning()
        ids = np.arange(3, dtype=np.int64)
        req = np.asarray([22, 22, 22], dtype=np.int64)  # share=21, extra=1
        g = self._grants(deq, ids, req, 64)
        assert deq.allocation_fixed_point(ids, req, g, 64, 7) == 0
        g2 = deq.allocate_batch(ids, req, 64)
        assert not np.array_equal(g, g2)  # the bonus really moved

    def test_roundrobin_divisible_total(self):
        rr = RoundRobinAllocator()
        ids = np.arange(4, dtype=np.int64)
        req = np.asarray([100, 100, 100, 100], dtype=np.int64)
        g = rr.allocate_batch(ids, req, 64)
        rot = rr._rotation
        assert rr.allocation_fixed_point(ids, req, g, 64, 5) == 5
        assert rr._rotation == rot + 5
        assert np.array_equal(rr.allocate_batch(ids, req, 64), g)

    def test_roundrobin_remainder_never_fixed(self):
        rr = RoundRobinAllocator()
        ids = np.arange(3, dtype=np.int64)
        req = np.asarray([100, 100, 100], dtype=np.int64)
        g = rr.allocate_batch(ids, req, 64)
        assert rr.allocation_fixed_point(ids, req, g, 64, 5) == 0

    def test_base_allocator_returns_zero(self):
        from repro.allocators.base import Allocator

        class Mapping(Allocator):
            def allocate(self, requests, total):
                return {j: 1 for j in requests}

        ids = np.arange(2, dtype=np.int64)
        req = np.ones(2, dtype=np.int64)
        assert Mapping().allocation_fixed_point(ids, req, req, 4, 9) == 0


# ---------------------------------------------------------------------------
# Feedback fixed points
# ---------------------------------------------------------------------------


class TestAdvanceRequestBatch:
    def _cols(self, request, allotment, work, span):
        request = np.asarray(request, dtype=np.float64)
        return dict(
            request=request,
            request_int=np.maximum(
                1, np.ceil(request - 1e-9).astype(np.int64)
            ),
            allotment=np.asarray(allotment, dtype=np.int64),
            work=np.asarray(work, dtype=np.int64),
            span=np.asarray(span, dtype=np.float64),
            steps=np.full(len(request), 100, dtype=np.int64),
        )

    def test_fixed_point_advances(self):
        policy = AControl(0.2)
        # d == A(q) == w: the geometric filter maps w to itself bitwise, so
        # the trajectory is constant through all 50 quanta
        cols = self._cols([8.0], [8], [800], [100.0])
        traj = policy.advance_request_batch(**cols, quanta=50)
        assert traj is not None and traj.shape == (51, 1)
        assert (traj == 8.0).all()

    def test_moving_recurrence_stops_at_integer_change(self):
        policy = AControl(0.2)
        # A=8, d=4: d' = 0.2*4 + 0.8*8 = 7.2 and ceil(7.2) = 8 != 4, so the
        # trajectory covers one quantum and ends at the request after it
        cols = self._cols([4.0], [4], [400], [50.0])
        traj = policy.advance_request_batch(**cols, quanta=2)
        assert traj is not None and traj.shape == (2, 1)
        assert traj[:, 0].tolist() == [4.0, 0.2 * 4.0 + (1.0 - 0.2) * 8.0]

    def test_scalar_only_policy_returns_none(self):
        class ScalarOnly(FeedbackPolicy):
            """No array form: ``next_request_batch`` is the base's."""

            def next_request(self, prev):
                return prev.request

        cols = self._cols([8.0], [8], [800], [100.0])
        assert ScalarOnly().advance_request_batch(**cols, quanta=2) is None

    def test_quanta_below_one_rejected(self):
        cols = self._cols([8.0], [8], [800], [100.0])
        with pytest.raises(ValueError):
            AControl().advance_request_batch(**cols, quanta=0)


class TestRequestTrajectory:
    """The trajectory a superstep takes its per-quantum requests from."""

    L = 100

    def _cols(self, request, request_int, allotment, work, span):
        n = len(request)
        return dict(
            request=np.asarray(request, dtype=np.float64),
            request_int=np.asarray(request_int, dtype=np.int64),
            allotment=np.asarray(allotment, dtype=np.int64),
            work=np.asarray(work, dtype=np.int64),
            span=np.asarray(span, dtype=np.float64),
            steps=np.full(n, self.L, dtype=np.int64),
        )

    def _scalar(self, policy, cols, slot, request, quanta):
        """``quanta + 1`` requests from iterating ``next_request`` on one
        slot's record."""
        record = QuantumRecord(
            index=1,
            request=request,
            request_int=int(cols["request_int"][slot]),
            available=64,
            allotment=int(cols["allotment"][slot]),
            work=int(cols["work"][slot]),
            span=float(cols["span"][slot]),
            steps=self.L,
            quantum_length=self.L,
        )
        out = [request]
        for _ in range(quanta):
            record = dataclasses.replace(
                record, request=policy.next_request(record)
            )
            out.append(record.request)
        return out

    def test_equals_scalar_next_request_iterated(self):
        policy = AControl(0.2)
        # A = work/span: 4 (from 3.4 below), 8 (from 7.2 below), 2 (fixed)
        cols = self._cols(
            [3.4, 7.2, 2.0], [4, 8, 2], [4, 8, 2], [400, 800, 200],
            [100.0, 100.0, 100.0],
        )
        traj = policy.advance_request_batch(**cols, quanta=60)
        assert traj is not None and traj.shape == (61, 3)
        for slot in range(3):
            expect = self._scalar(policy, cols, slot, float(cols["request"][slot]), 60)
            got = traj[:, slot].tolist()
            # bitwise: the same float, row for row
            assert [x.hex() for x in got] == [x.hex() for x in expect]

    def test_acontrol_converges_to_the_integer_it_holds(self):
        cols = self._cols([3.4], [4], [4], [400], [100.0])
        traj = AControl(0.2).advance_request_batch(**cols, quanta=200)
        assert traj is not None and traj.shape == (201, 1)
        d = traj[:, 0]
        assert d[0] == 3.4 and d[1] == 0.2 * 3.4 + (1.0 - 0.2) * 4.0
        assert d[-1] == 4.0
        assert (np.ceil(d - 1e-9) == 4).all()
        assert (np.diff(d) >= 0).all()  # Theorem 1: no overshoot
        # the real request moves for many quanta after ceil(d) settles
        assert int(np.argmax(d == 4.0)) > 10

    def test_agreedy_stops_at_its_first_integer_change(self):
        policy = AGreedy(2.0, 0.8)
        # efficient and satisfied: the request doubles, 2 -> 4
        cols = self._cols([2.0], [2], [2], [200], [100.0])
        traj = policy.advance_request_batch(**cols, quanta=10)
        assert traj is not None and traj[:, 0].tolist() == [2.0, 4.0]
        # efficient but deprived: the request holds, a constant trajectory
        cols = self._cols([6.0], [6], [3], [300], [100.0])
        traj = policy.advance_request_batch(**cols, quanta=10)
        assert traj is not None and traj.shape == (11, 1)
        assert (traj == 6.0).all()

    def test_one_moving_slot_ends_every_slot(self):
        # slot 1 leaves its integer after one quantum; slot 0 is fixed
        cols = self._cols([8.0, 4.0], [8, 4], [8, 4], [800, 400], [100.0, 50.0])
        traj = AControl(0.2).advance_request_batch(**cols, quanta=30)
        assert traj is not None and traj.shape == (2, 2)
        assert traj[:, 0].tolist() == [8.0, 8.0]

    def test_request_off_its_integer_refused(self):
        cols = self._cols([4.5], [4], [4], [400], [100.0])
        assert AControl(0.2).advance_request_batch(**cols, quanta=5) is None


# ---------------------------------------------------------------------------
# Kernel slot arrays
# ---------------------------------------------------------------------------

_SLOT_VALUES = ("request", "next_q", "_cur", "_done", "_rem", "_prev_allot")


def _assert_kernel_matches(kernel: MultiBatchKernel, ref: list[dict]) -> None:
    """Every per-slot array, the packed segment tables and their offsets
    equal the list-of-rows reference."""
    assert kernel.jids == [row["jid"] for row in ref]
    for name in _SLOT_VALUES:
        assert getattr(kernel, name).tolist() == [row[name] for row in ref], name
    lens = [len(row["seg_w"]) for row in ref]
    assert kernel._seg_len.tolist() == lens
    for row, off, ln in zip(ref, kernel._seg_off.tolist(), lens):
        assert kernel._seg_w[off : off + ln].tolist() == row["seg_w"]
        assert kernel._seg_total[off : off + ln].tolist() == row["seg_total"]
    assert kernel._seg_w.tolist() == [w for row in ref for w in row["seg_w"]]
    assert kernel._seg_total.tolist() == [t for row in ref for t in row["seg_total"]]
    ids, order = kernel.allocation_order()
    assert ids.tolist() == sorted(kernel.jids)
    assert [kernel.jids[i] for i in order.tolist()] == sorted(kernel.jids)


class TestKernelSlots:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_admit_remove_matches_reference(self, seed):
        """Two kernels mirror a plain python list-of-rows reference through
        random interleavings of batched admissions, executed quanta,
        removals and migrations (``absorb`` then ``remove``)."""
        rng = np.random.default_rng(seed)
        kernels = [MultiBatchKernel(), MultiBatchKernel()]
        refs: list[list[dict]] = [[], []]
        uid = 0

        def pick(n: int) -> list[int]:
            size = int(rng.integers(1, n + 1))
            return sorted(rng.choice(n, size=size, replace=False).tolist())

        for _ in range(80):
            g = int(rng.integers(2))
            kernel, ref = kernels[g], refs[g]
            op = rng.random()
            if ref and op < 0.2:
                positions = pick(len(ref))
                kernel.remove(positions)
                refs[g] = [row for i, row in enumerate(ref) if i not in positions]
            elif ref and op < 0.45:
                positions = pick(len(ref))
                kernels[1 - g].absorb(kernel, positions)
                kernel.remove(positions)
                refs[1 - g] += [ref[i] for i in positions]
                refs[g] = [row for i, row in enumerate(ref) if i not in positions]
            elif ref and op < 0.7:
                # Advance every slot (their state leaves the admission
                # values), then drop the finished ones, as the loop does.
                alloc = rng.integers(1, 6, len(ref)).astype(np.int64)
                out = kernel.execute_quantum(alloc, 10, ReallocationOverhead())
                kernel.bump_quantum()
                kernel.request += 0.5
                finished = np.flatnonzero(out.finished).tolist()
                kernel.remove(finished)
                refs[g] = [row for i, row in enumerate(ref) if i not in finished]
                for i, row in enumerate(refs[g]):
                    for name in _SLOT_VALUES:
                        row[name] = getattr(kernel, name)[i].item()
            else:
                arrivals = []
                for _ in range(int(rng.integers(1, 4))):
                    k = int(rng.integers(1, 5))
                    profile = tuple(
                        (int(w), int(lv))
                        for w, lv in zip(rng.integers(1, 9, k), rng.integers(1, 50, k))
                    )
                    spec = JobSpec(job=PhasedJob(list(profile)), feedback=FixedRequest(2))
                    trace = JobTrace(quantum_length=10, job_id=uid)
                    arrivals.append((uid, uid, spec, trace, profile, float(uid)))
                    ref.append(
                        {
                            "jid": uid,
                            "request": float(uid),
                            "next_q": 1,
                            "_cur": 0,
                            "_done": 0,
                            "_rem": sum(w * lv for w, lv in profile),
                            "_prev_allot": -1,
                            "seg_w": [w for w, _ in profile],
                            "seg_total": [w * lv for w, lv in profile],
                        }
                    )
                    uid += 1
                kernel.admit(arrivals)
            for kernel, ref in zip(kernels, refs):
                _assert_kernel_matches(kernel, ref)


# ---------------------------------------------------------------------------
# QuantumLog expansion
# ---------------------------------------------------------------------------


class TestQuantumLog:
    def _group_cols(self, index0, request, work):
        n = len(index0)
        request = np.asarray(request, dtype=np.float64)
        work = np.asarray(work, dtype=np.int64)
        return dict(
            index0=np.asarray(index0, dtype=np.int64),
            request=request,
            request_int=np.maximum(1, np.ceil(request - 1e-9).astype(np.int64)),
            available=np.full(n, 64, dtype=np.int64),
            allotment=np.minimum(
                np.maximum(1, np.ceil(request - 1e-9).astype(np.int64)), 64
            ),
            work=work,
            span=work / 2.0,
            steps=np.full(n, 10, dtype=np.int64),
        )

    def test_repeat_groups_expand_to_per_quantum_records(self, monkeypatch):
        log = QuantumLog(10)
        log.set_layout([5, 3])
        log.append_quantum(start_step=0, repeat=1, **self._group_cols(
            [1, 1], [2.0, 4.0], [20, 40]))
        repeated = self._group_cols([2, 2], [2.0, 4.0], [20, 40])
        repeated["request"] = np.repeat(repeated["request"], 3)  # per row
        log.append_quantum(start_step=10, repeat=3, **repeated)
        log.set_layout([3])  # job 5 left
        log.append_quantum(start_step=40, repeat=1, **self._group_cols(
            [5], [4.0], [12]))
        traces = {
            5: JobTrace(quantum_length=10, job_id=5),
            3: JobTrace(quantum_length=10, job_id=3),
        }
        calls = _count_build_records(monkeypatch)
        log.build_traces(traces)
        assert len(traces[5]) == 4 and len(traces[3]) == 5
        assert calls == []
        recs5 = traces[5].records
        assert [r.index for r in recs5] == [1, 2, 3, 4]
        assert [r.start_step for r in recs5] == [0, 10, 20, 30]
        assert all(r.work == 20 and r.request == 2.0 for r in recs5)
        recs3 = traces[3].records
        assert [r.index for r in recs3] == [1, 2, 3, 4, 5]
        assert [r.start_step for r in recs3] == [0, 10, 20, 30, 40]
        assert [r.work for r in recs3] == [40, 40, 40, 40, 12]
        # materialized records are plain QuantumRecord with python scalars
        assert all(isinstance(r, QuantumRecord) for r in recs3)
        assert all(type(r.work) is int and type(r.span) is float
                   for r in recs3)

    def test_invalid_row_raises_the_scalar_error(self):
        log = QuantumLog(10)
        log.set_layout([0])
        cols = self._group_cols([1], [2.0], [20])
        cols["work"] = np.asarray([999], dtype=np.int64)  # > a*steps
        with pytest.raises(ValueError, match=r"work outside"):
            log.append_quantum(start_step=0, repeat=1, **cols)


# ---------------------------------------------------------------------------
# Whole-run three-way identity
# ---------------------------------------------------------------------------


class TestSuperstepIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets_three_way(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        jobs = [random_phased_job(rng) for _ in range(n)]
        rels = rng.integers(0, 60, n).tolist()

        def make():
            policy = AControl(0.2)
            return [
                JobSpec(job=j, feedback=policy, release_time=int(r), job_id=i)
                for i, (j, r) in enumerate(zip(jobs, rels))
            ]

        run_three_way(make, 32, quantum_length=int(rng.integers(3, 12)))

    @pytest.mark.parametrize("seed", range(4))
    def test_stable_workload_engages_and_matches(self, seed):
        """On a satisfied, long-phase workload supersteps must actually
        fire — far fewer allocator calls than quanta — and still match."""
        rng = np.random.default_rng(100 + seed)
        policy = AControl(0.2)
        jobs = [
            PhasedJob([(int(rng.integers(4, 10)), 40_000)])
            for _ in range(4)
        ]

        def make():
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        counting = CountingDEQ()
        fast = simulate_job_set(make(), counting, 128, quantum_length=50)
        assert counting.batch_calls * 4 < fast.quanta_elapsed
        per_quantum_deq = CountingDEQ()
        with per_quantum():
            slow = simulate_job_set(make(), per_quantum_deq, 128, quantum_length=50)
        assert per_quantum_deq.batch_calls == slow.quanta_elapsed
        assert_results_identical(slow, fast)

    def test_mixed_policies_and_fixed_request(self):
        jobs = [
            PhasedJob([(6, 5000)]),
            PhasedJob([(4, 5000)]),
            PhasedJob([(8, 5000)]),
        ]

        def make():
            return [
                JobSpec(job=jobs[0], feedback=AControl(0.2)),
                JobSpec(job=jobs[1], feedback=AGreedy(2.0, 0.8)),
                JobSpec(job=jobs[2], feedback=FixedRequest(8.0)),
            ]

        run_three_way(make, 64, quantum_length=20)

    def test_overhead_three_way(self):
        jobs = [PhasedJob([(5, 3000)]), PhasedJob([(3, 2000)])]

        def make():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_three_way(
            make,
            32,
            quantum_length=25,
            overhead=ReallocationOverhead(fixed=2.0, per_processor=0.5),
        )

    def test_strict_three_way(self):
        jobs = [PhasedJob([(4, 2000)]), PhasedJob([(7, 2500)])]

        def make():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_three_way(make, 32, quantum_length=20, strict=True)

    def test_roundrobin_three_way(self):
        jobs = [PhasedJob([(4, 4000)]) for _ in range(4)]

        def make():
            policy = AControl(0.2)
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        run_three_way(make, 64, allocator=RoundRobinAllocator,
                      quantum_length=25)

    def test_arrival_on_event_boundary_inside_would_be_superstep(self):
        """A release landing mid-way through what would otherwise be a long
        superstep must cap the fast-forward at the preceding boundary."""
        late = PhasedJob([(3, 500)])
        steady = [PhasedJob([(6, 50_000)]) for _ in range(3)]

        def make():
            policy = AControl(0.2)
            specs = [JobSpec(job=j, feedback=policy, job_id=i)
                     for i, j in enumerate(steady)]
            specs.append(
                JobSpec(job=late, feedback=policy, release_time=7_777,
                        job_id=99)
            )
            return specs

        fast = run_three_way(make, 128, quantum_length=50)
        # the late job really was admitted at the boundary after release
        assert fast.traces[99].records[0].start_step == 7_800

    def test_max_quanta_cap_respected(self):
        policy = AControl(0.2)
        jobs = [PhasedJob([(6, 100_000)])]

        def make():
            return [JobSpec(job=j, feedback=policy) for j in jobs]

        with pytest.raises(RuntimeError, match="did not finish"):
            simulate_job_set(
                make(), DynamicEquiPartitioning(), 32, quantum_length=10,
                max_quanta=500,
            )

    def test_columnar_traces_lazy_until_records_read(self, monkeypatch):
        policy = AControl(0.2)
        specs = [
            JobSpec(job=PhasedJob([(4, 3000)]), feedback=policy, job_id=0)
        ]
        res = simulate_job_set(
            specs, DynamicEquiPartitioning(), 16, quantum_length=20
        )
        trace = res.traces[0]
        calls = _count_build_records(monkeypatch)
        # aggregates answer from columns without building records
        work = trace.total_work
        span = trace.total_span
        assert calls == []
        recs = trace.records  # builds a fresh row view
        assert calls == [len(recs)]
        assert sum(r.work for r in recs) == work
        total = 0.0
        for r in recs:
            total += r.span
        assert total == span


class TestIntegerRequestSupersteps:
    """Supersteps certified on the integer request while A-Control's real
    request is still converging (Theorem 1: ``ceil(d)`` settles long before
    ``d`` is a bitwise fixed point)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_stable_sets_match_serial(self, seed):
        rng = np.random.default_rng(2400 + seed)
        kind = ("deq", "hierarchical", "machines")[seed % 3]
        n = int(rng.integers(2, 9))
        L = int(rng.integers(5, 30))
        overhead = (
            ReallocationOverhead(fixed=2.0, per_processor=0.5)
            if rng.integers(2)
            else ReallocationOverhead()
        )
        jobs = [
            PhasedJob(
                [
                    (int(rng.integers(1, 10)), int(rng.integers(20, 90)) * L)
                    for _ in range(int(rng.integers(1, 3)))
                ]
            )
            for _ in range(n)
        ]
        rates = [float(r) for r in rng.choice([0.0, 0.2, 0.5], n)]
        greedy = rng.random(n) < 0.3
        releases = (rng.integers(0, 4, n) * int(rng.integers(1, 20)) * L).tolist()
        if kind == "machines":
            budgets = [16, 24]
            ids = [int(i % 2) * 16 + i // 2 for i in range(n)]
            processors = sum(budgets)
        else:
            ids = list(range(n))
            processors = int(rng.integers(n, 48))

        def make():
            return [
                JobSpec(
                    job=job,
                    feedback=AGreedy(2.0, 0.8) if g else AControl(r),
                    release_time=int(rel),
                    job_id=jid,
                )
                for job, r, g, rel, jid in zip(jobs, rates, greedy, releases, ids)
            ]

        def allocator():
            if kind == "hierarchical":
                return HierarchicalAllocator(group_size=8, rebalance_interval=7)
            if kind == "machines":
                return DisjointMachines(budgets)
            return DynamicEquiPartitioning()

        kwargs = dict(quantum_length=L, overhead=overhead)
        serial = simulate_job_set(
            make(), allocator(), processors, batch="off", **kwargs
        )
        windowed = simulate_job_set(make(), allocator(), processors, **kwargs)
        assert_results_identical(serial, windowed)
        if kind == "hierarchical":
            per_group = simulate_job_set(
                make(), allocator(), processors, shards=2, **kwargs
            )
            assert_results_identical(serial, per_group)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_mixed_policy_trajectories_of_different_lengths(self, order):
        """A slow filter (r=0.9) holds each integer request for a few quanta
        and then moves on, while a fast one (r=0.2) and a fixed request
        hold theirs: every policy group's trajectory has another length,
        and the superstep must end at the shortest."""
        jobs = [
            (PhasedJob([(8, 40_000)]), lambda: AControl(0.9)),
            (PhasedJob([(4, 40_000)]), lambda: AControl(0.2)),
            (PhasedJob([(3, 40_000)]), lambda: FixedRequest(3)),
        ]

        def make():
            return [
                JobSpec(job=jobs[i][0], feedback=jobs[i][1](), job_id=jid)
                for jid, i in enumerate(order)
            ]

        counting = CountingDEQ()
        fast = simulate_job_set(make(), counting, 64, quantum_length=20)
        assert counting.batch_calls * 4 < fast.quanta_elapsed
        serial = simulate_job_set(
            make(), DynamicEquiPartitioning(), 64, quantum_length=20, batch="off"
        )
        assert_results_identical(serial, fast)

    def test_lone_abg_job_fast_forwards_once_its_integer_settles(
        self, monkeypatch
    ):
        """d goes 1 -> 3.4 -> 3.88 -> ...: ``ceil(d) = 4`` from the second
        quantum on, so the first superstep follows within 4 executed quanta
        (a bitwise-fixed request would take about 25)."""
        executed = [0]
        first_superstep: list[int] = []
        execute = MultiBatchKernel.execute_quantum
        apply = MultiBatchKernel.apply_superstep

        def counted_execute(self, *args, **kwargs):
            executed[0] += 1
            return execute(self, *args, **kwargs)

        def noted_apply(self, *args, **kwargs):
            if not first_superstep:
                first_superstep.append(executed[0])
            return apply(self, *args, **kwargs)

        monkeypatch.setattr(MultiBatchKernel, "execute_quantum", counted_execute)
        monkeypatch.setattr(MultiBatchKernel, "apply_superstep", noted_apply)

        def make():
            return [JobSpec(job=PhasedJob([(4, 4000)]), feedback=AControl(0.2))]

        fast = simulate_job_set(make(), DynamicEquiPartitioning(), 16, quantum_length=10)
        assert first_superstep and first_superstep[0] <= 4
        serial = simulate_job_set(
            make(), DynamicEquiPartitioning(), 16, quantum_length=10, batch="off"
        )
        assert_results_identical(serial, fast)
        requests = [r.request for r in fast.traces[0].records]
        assert requests[1] == 0.2 * 1.0 + (1.0 - 0.2) * 4.0 and requests[-1] == 4.0
        assert len(set(requests)) > 10  # the fast-forwarded rows still move


# ---------------------------------------------------------------------------
# Speed floors
# ---------------------------------------------------------------------------


def _best_of_3(run):
    """Best wall time of three runs after a warm-up, and the warm-up's result."""
    result = run()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.slow
class TestSpeedFloors:
    def test_superstep_at_least_2x_per_quantum(self):
        """On a stable-allocation set (every request satisfiable on P=128,
        so DEQ stops rotating) supersteps beat per-quantum execution of the
        same job-quanta by more than 2x."""

        def run():
            policy = AControl(0.2)
            specs = [
                JobSpec(job=PhasedJob([(8 + i, 600_000)]), feedback=policy)
                for i in range(8)
            ]
            result = simulate_job_set(
                specs, DynamicEquiPartitioning(), 128, quantum_length=1000
            )
            return sum(len(t) for t in result.traces.values())

        with per_quantum():
            off_s, off_quanta = _best_of_3(run)
        auto_s, auto_quanta = _best_of_3(run)
        assert off_quanta == auto_quanta
        assert off_s / auto_s > 2

    def test_batched_kernel_at_least_5x_reference(self):
        """The batched level-major kernel beats the reference heap engine by
        more than 5x on the same fork-join dag."""
        dag = fork_join_from_phases([(1, 100), (32, 100), (1, 100), (32, 100)])

        def drive(executor):
            steps = 0
            while not executor.finished:
                steps += executor.execute_quantum(16, 50).steps
            return steps

        explicit_s, explicit_steps = _best_of_3(
            lambda: drive(ExplicitExecutor(dag, "breadth-first"))
        )
        batched_s, batched_steps = _best_of_3(lambda: drive(BatchedDagExecutor(dag)))
        assert explicit_steps == batched_steps
        assert explicit_s / batched_s > 5
