"""Lifetime edges of the columnar quantum log.

No recorded column may alias a live arena buffer.  These tests pin that
contract at runtime: records materialized *after* the arena doubles or
its rows are reused must still show emission-time values, an empty
``QuantumLog`` must be a no-op, and groups spanning a layout-epoch boundary
must expand against the layout registered for *their* epoch.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import JobTrace
from repro.sim.superstep import QuantumLog, SuperstepArena

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


class TestSnapshotLifetimes:
    def test_layout_survives_caller_mutation(self):
        # set_layout must own its memory: the kernel keeps appending to and
        # compacting the very list it registers.  Goldens and the three-way
        # path tests still pass when the copy is dropped; only this fails.
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
        # index0/request are emitted as live arena views; the simulation
        # mutates them in place right after emission
        log = QuantumLog(L)
        arena = SuperstepArena()
        arena.admit(request=2.0, seg_w=np.array([4], dtype=np.int64),
                    seg_total=np.array([400], dtype=np.int64))
        arena.admit(request=3.0, seg_w=np.array([4], dtype=np.int64),
                    seg_total=np.array([400], dtype=np.int64))
        log.set_layout([1, 2])
        _emit(
            log,
            start_step=0,
            repeat=1,
            index0=arena.next_q[: arena.n],
            request=arena.request[: arena.n],
        )
        # the next quantum bumps cursors and reuses the same rows
        arena.next_q[: arena.n] += 1
        arena.request[: arena.n] = -1.0

        traces = {1: JobTrace(L, job_id=1), 2: JobTrace(L, job_id=2)}
        log.build_traces(traces)
        assert traces[1].records[0].index == 1
        assert traces[1].records[0].request == 2.0
        assert traces[2].records[0].request == 3.0

    def test_records_materialized_after_arena_doubling(self):
        # grow the arena past its initial capacity *after* emission: the
        # recorded group must keep reading emission-time values, not the
        # reallocated (or dead) buffers
        log = QuantumLog(L)
        arena = SuperstepArena()
        seg_w = np.array([4], dtype=np.int64)
        seg_total = np.array([400], dtype=np.int64)
        arena.admit(request=2.0, seg_w=seg_w, seg_total=seg_total)
        cap0 = arena.request.size
        log.set_layout([1])
        _emit(
            log,
            start_step=0,
            repeat=1,
            index0=arena.next_q[: arena.n],
            request=arena.request[: arena.n],
        )
        while arena.request.size == cap0:  # force at least one doubling
            arena.admit(request=9.0, seg_w=seg_w, seg_total=seg_total)
        arena.request[:] = -1.0

        traces = {1: JobTrace(L, job_id=1)}
        log.build_traces(traces)
        record = traces[1].records[0]
        assert record.request == 2.0
        assert record.index == 1


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
