"""Lifetime edges of the columnar quantum log.

No recorded column may alias a kernel array that is later written in
place.  These tests pin that contract at runtime: a logged group must keep
its emission-time values across every write the windowed loop makes to
the kernel afterwards, an empty ``QuantumLog`` must be a no-op, and groups
spanning a layout-epoch boundary must expand against the layout registered
for *their* epoch.
"""

from __future__ import annotations

import numpy as np

from repro.core.overhead import ReallocationOverhead
from repro.core.reference import FixedRequest
from repro.core.types import JobTrace
from repro.engine.phased import PhasedJob
from repro.sim.jobs import JobSpec
from repro.sim.multi_batched import MultiBatchKernel
from repro.sim.superstep import QuantumLog

L = 10


def _emit(log: QuantumLog, *, start_step: int, repeat: int, index0, request) -> None:
    """Append one valid group; the non-snapshot columns are always fresh."""
    n = len(index0)
    log.append_quantum(
        start_step=start_step,
        repeat=repeat,
        index0=np.asarray(index0, dtype=np.int64),
        request=np.asarray(request, dtype=np.float64),
        request_int=np.full(n, 2, dtype=np.int64),
        available=np.full(n, 4, dtype=np.int64),
        allotment=np.full(n, 2, dtype=np.int64),
        work=np.full(n, 2 * L, dtype=np.int64),
        span=np.full(n, float(L), dtype=np.float64),
        steps=np.full(n, L, dtype=np.int64),
    )


def _kernel(jids, requests) -> MultiBatchKernel:
    """A kernel holding one 400-task job per id, none of which finishes
    within a few quanta."""
    kernel = MultiBatchKernel()
    kernel.admit(_arrivals(jids, requests))
    return kernel


def _arrivals(jids, requests):
    out = []
    for jid, request in zip(jids, requests):
        spec = JobSpec(job=PhasedJob([(4, 100)]), feedback=FixedRequest(2))
        trace = JobTrace(L, job_id=jid)
        out.append((jid, jid, spec, trace, ((4, 100),), request))
    return out


def _run_logged_quantum(kernel: MultiBatchKernel, log: QuantumLog, alloc):
    """One quantum as the windowed loop runs and logs it: ``index0`` and
    ``request`` are the kernel's live arrays, ``allotment`` the array the
    kernel keeps as ``_prev_allot``."""
    out = kernel.execute_quantum(alloc, L, ReallocationOverhead())
    log.set_layout(kernel.jids)
    return log.append_quantum(
        start_step=0,
        repeat=1,
        index0=kernel.next_q,
        request=kernel.request,
        request_int=kernel.integer_requests(),
        available=np.full(len(kernel), 8, dtype=np.int64),
        allotment=alloc,
        work=out.work,
        span=out.span,
        steps=out.steps,
    )


def _in_place_writes():
    """``(name, write)`` per kind of write the windowed loop makes into a
    kernel's arrays after logging a quantum, membership unchanged: each
    ``write(kernel)`` runs on a two-slot kernel holding jobs 1 and 2."""

    def feedback(kernel):
        kernel.request[:] = -1.0

    def next_quantum(kernel):
        kernel.execute_quantum(np.array([1, 3], dtype=np.int64), L, ReallocationOverhead())

    def superstep(kernel):
        alloc = kernel._prev_allot
        plan = kernel.superstep_plan(alloc, L)
        assert plan is not None
        kernel.apply_superstep(1, plan, alloc, L)

    return [
        ("bump_quantum", MultiBatchKernel.bump_quantum),
        ("feedback", feedback),
        ("execute_quantum", next_quantum),
        ("apply_superstep", superstep),
    ]


def _membership_writes():
    """``(name, write)`` per membership change the windowed loop makes to
    a kernel after logging a quantum; each rebuilds every per-slot array.
    Runs on the same two-slot kernel as :func:`_in_place_writes`."""

    def migrate_in(kernel):
        src = _kernel([7, 8], [5.0, 6.0])
        kernel.absorb(src, [1])
        src.remove([1])

    def migrate_out(kernel):
        MultiBatchKernel().absorb(kernel, [0])
        kernel.remove([0])

    def grow(kernel):
        kernel.admit(_arrivals(range(3, 40), [9.0] * 37))

    return [
        ("admit", lambda kernel: kernel.admit(_arrivals([3], [9.0]))),
        ("admit many", grow),
        ("absorb", migrate_in),
        ("remove", lambda kernel: kernel.remove([0])),
        ("migrate out", migrate_out),
    ]


def _assert_logged_group_survives(writes) -> None:
    """A logged group must read its emission-time values after ``write``."""
    for name, write in writes:
        log = QuantumLog(L)
        kernel = _kernel([1, 2], [2.0, 3.0])
        _run_logged_quantum(kernel, log, np.array([2, 3], dtype=np.int64))
        write(kernel)

        traces = {1: JobTrace(L, job_id=1), 2: JobTrace(L, job_id=2)}
        log.build_traces(traces)
        first, second = traces[1].records[0], traces[2].records[0]
        assert (first.index, second.index) == (1, 1), name
        assert (first.request, second.request) == (2.0, 3.0), name
        assert (first.work, second.work) == (2 * L, 3 * L), name


class TestSnapshotLifetimes:
    def test_layout_survives_caller_mutation(self):
        # set_layout must own its memory: the caller may keep mutating the
        # list it registers.  Goldens and the three-way path tests still
        # pass when the copy is dropped; only this fails.
        log = QuantumLog(L)
        jids = [7, 9]
        log.set_layout(jids)
        _emit(log, start_step=0, repeat=1, index0=[1, 1], request=[2.0, 2.0])
        jids.append(11)
        jids[0] = 99

        traces = {7: JobTrace(L, job_id=7), 9: JobTrace(L, job_id=9)}
        log.build_traces(traces)
        assert len(traces[7].records) == 1
        assert len(traces[9].records) == 1

    def test_index_and_request_survive_arena_reuse(self):
        # index0/request are emitted as the kernel's live arrays, which the
        # loop writes in place right after emission (the next quantum reuses
        # the same slots).  The records must show emission-time values.
        _assert_logged_group_survives(_in_place_writes())

    def test_records_materialized_after_arena_doubling(self):
        # membership changes after emission (admitting past the original
        # size, absorbing, removing) rebuild every kernel array; records
        # materialized afterwards must keep reading emission-time values.
        _assert_logged_group_survives(_membership_writes())

    def test_allotment_column_survives_kernel_writes(self):
        # The kernel keeps the allotment array it ran as ``_prev_allot``,
        # and the log keeps the same array as the quantum's allotment
        # column, so the kernel may only rebind ``_prev_allot``: a write
        # into it would rewrite the logged quantum.
        for name, write in _in_place_writes() + _membership_writes():
            log = QuantumLog(L)
            kernel = _kernel([1, 2], [2.0, 3.0])
            alloc = np.array([2, 3], dtype=np.int64)
            group = _run_logged_quantum(kernel, log, alloc)
            assert kernel._prev_allot is alloc
            assert group.allotment is alloc
            write(kernel)

            assert alloc.tolist() == [2, 3], name
            traces = {1: JobTrace(L, job_id=1), 2: JobTrace(L, job_id=2)}
            log.build_traces(traces)
            assert traces[1].records[0].allotment == 2, name
            assert traces[2].records[0].allotment == 3, name


class TestEmptyLog:
    def test_build_traces_is_a_noop(self, no_records):
        log = QuantumLog(L)
        assert len(log) == 0
        trace = JobTrace(L, job_id=1)
        traces = {1: trace}
        log.build_traces(traces)
        assert traces[1] is trace
        assert len(trace) == 0 and trace.total_work == 0

    def test_layout_only_log_is_still_empty(self, no_records):
        log = QuantumLog(L)
        log.set_layout([1, 2])
        trace = JobTrace(L, job_id=1)
        traces = {1: trace}
        log.build_traces(traces)
        assert traces[1] is trace and len(trace) == 0
        assert len(log) == 0


class TestLayoutEpochBoundary:
    def test_groups_expand_against_their_own_epoch(self):
        # epoch 0: jobs (1, 2); epoch 1: job 1 finished, job 3 admitted in
        # its slot.  Rows must land on the epoch's layout, not the latest.
        log = QuantumLog(L)
        log.set_layout([1, 2])
        _emit(log, start_step=0, repeat=1, index0=[1, 1], request=[2.0, 3.0])
        log.set_layout([3, 2])
        _emit(log, start_step=L, repeat=1, index0=[1, 2], request=[4.0, 3.0])

        traces = {j: JobTrace(L, job_id=j) for j in (1, 2, 3)}
        log.build_traces(traces)
        assert [r.request for r in traces[1].records] == [2.0]
        assert [r.request for r in traces[2].records] == [3.0, 3.0]
        assert [r.index for r in traces[2].records] == [1, 2]
        assert [r.request for r in traces[3].records] == [4.0]

    def test_superstep_group_expands_across_the_boundary(self):
        # a repeat=K group fast-forwards K quanta inside one epoch; the
        # following epoch's group must start where the expansion left off
        log = QuantumLog(L)
        log.set_layout([5])
        _emit(log, start_step=0, repeat=3, index0=[1], request=[2.0, 2.0, 2.0])
        log.set_layout([5, 6])
        _emit(log, start_step=3 * L, repeat=1, index0=[4, 1], request=[2.0, 8.0])

        traces = {5: JobTrace(L, job_id=5), 6: JobTrace(L, job_id=6)}
        log.build_traces(traces)
        five = traces[5].records
        assert [r.index for r in five] == [1, 2, 3, 4]
        assert [r.start_step for r in five] == [0, L, 2 * L, 3 * L]
        assert [r.index for r in traces[6].records] == [1]

    def test_group_records_epoch_at_emission_time(self):
        log = QuantumLog(L)
        log.set_layout([1])
        group = log.append_quantum(
            start_step=0,
            repeat=1,
            index0=np.array([1], dtype=np.int64),
            request=np.array([2.0]),
            request_int=np.array([2], dtype=np.int64),
            available=np.array([4], dtype=np.int64),
            allotment=np.array([2], dtype=np.int64),
            work=np.array([2 * L], dtype=np.int64),
            span=np.array([float(L)]),
            steps=np.array([L], dtype=np.int64),
        )
        assert group.epoch == 0
        log.set_layout([1, 2])
        assert group.epoch == 0  # a later epoch never relabels old groups
