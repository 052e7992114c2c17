"""The windowed loop: the batched kernel's only per-quantum loop.

:func:`repro.sim.multi.simulate_job_set` hands every set it does not run on
the serial reference loop to :func:`simulate_windowed`.  Membership changes
only at admission boundaries and (under a :class:`~repro.allocators.
hierarchical.HierarchicalAllocator`) rebalancing boundaries, so the run is
cut at those barriers into *windows*.  Each allocation group advances a
whole window through one call of :func:`_advance_window` — per quantum one
array-native allocation, one kernel step, one columnar append to the run's
:class:`~repro.sim.superstep.QuantumLog` and one vectorized feedback pass,
with supersteps fast-forwarding through quanta the group provably repeats.
Between windows the coordinator admits arrivals, gathers the finished
traces and migrates slots between groups.

Every window is a plain call in the calling process.  ``per_group`` only
chooses how the groups are split:

- ``False``: every allocator, a hierarchical one included, is one group
  the size of ``P`` using the allocator's machine-wide ``allocate_batch``
  and ``allocation_fixed_point``;
- ``True`` (hierarchical allocators only): one window per group, with the
  allocator's membership protocol (``begin_window``, slot migration,
  ``quanta_to_rebalance``, ``advance_window``) run at each barrier.

Why per-group windows are byte-identical to one machine-wide group
------------------------------------------------------------------
A group window performs the machine-wide window's operations on the same
values in the same order, restricted to the group.  Allocation:
``HierarchicalAllocator.allocate_batch`` runs each group's inner waterfall
over its members in sorted-id order against the group's fixed budget —
exactly the call the group window makes.  Execution and feedback: the
kernel's chunk math and the policies' batch recurrences are elementwise per
slot.  Supersteps: a group window fast-forwards through quanta whose
group-local allocation is a certified fixed point
(:meth:`~repro.allocators.base.Allocator.fixed_point_probe`); the
machine-wide window, needing *every* group at a fixed point at once,
executes those quanta one by one, emitting the identical records.  That is
why per-group windows win: one churning group no longer pins the stable
groups to per-quantum execution.

At barriers the coordinator runs the same ``begin_window`` front half (sync
+ rebalance) the machine-wide ``allocate_batch`` calls would run.  Groups
run in group order; a job lives in one group per window, so each job's
rows reach the shared log in time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..allocators.base import Allocator, validate_allocation_arrays
from ..allocators.hierarchical import HierarchicalAllocator
from ..core.overhead import ReallocationOverhead
from ..core.types import JobTrace, QuantumRecord, integer_request
from ..runtime.supervisor import run_supervised  # noqa: F401
from .jobs import JobSpec
from .multi_batched import MultiBatchKernel, QuantumBatch
from .superstep import QuantumGroup, QuantumLog

__all__ = [
    "GroupWindowTask",
    "GroupWindowResult",
    "simulate_windowed",
]

#: A batchable job's ``(width, levels)`` segment profile.
Profile = tuple[tuple[int, int], ...]


def _scalar_feedback(
    kernel: MultiBatchKernel,
    positions: Sequence[int],
    group: QuantumGroup,
    length: int,
    start_step: int,
) -> None:
    """Per-record feedback for kernel slots whose policy has no vectorized
    form — rebuilds each slot's record from the quantum's emitted columns
    (identical values, so an identical next request)."""
    for pos in positions:
        slot = kernel.slots[pos]
        record = QuantumRecord(
            index=int(group.index0[pos]),
            request=float(group.request[pos]),
            request_int=int(group.request_int[pos]),
            available=int(group.available[pos]),
            allotment=int(group.allotment[pos]),
            work=int(group.work[pos]),
            span=float(group.span[pos]),
            steps=int(group.steps[pos]),
            quantum_length=length,
            start_step=start_step,
        )
        kernel.request[pos] = slot.policy.next_request(record)


def _batch_feedback(
    kernel: MultiBatchKernel,
    group: QuantumGroup,
    req_int: np.ndarray,
    alloc_arr: np.ndarray,
    batch_out: QuantumBatch,
    finished_pos: list[int],
    length: int,
    start: int,
) -> bool:
    """Post-quantum feedback over the kernel's slots, vectorized per policy
    instance (experiment job sets share one policy object across jobs, so
    the common case is one whole-array batch call, and a Figure 6 chunk
    makes one call per policy); returns whether any slot fell back to
    scalar feedback.  Requests computed for slots that just finished are
    discarded with the slot, exactly like the serial loop, which never
    updates a finished job's request.
    """
    uniform = kernel.uniform_policy
    if uniform is not None:
        nxt = uniform.next_request_batch(
            request=kernel.request,
            request_int=req_int,
            allotment=alloc_arr,
            work=batch_out.work,
            span=batch_out.span,
            steps=batch_out.steps,
        )
        if nxt is not None:
            kernel.request = nxt
            return False
    fin_set = set(finished_pos)
    if uniform is not None:
        live = [pos for pos in range(len(kernel)) if pos not in fin_set]
        _scalar_feedback(kernel, live, group, length, start)
        return True
    scalar_fb = False
    for policy, sub in kernel.policy_groups():
        nxt = policy.next_request_batch(
            request=kernel.request[sub],
            request_int=req_int[sub],
            allotment=alloc_arr[sub],
            work=batch_out.work[sub],
            span=batch_out.span[sub],
            steps=batch_out.steps[sub],
        )
        if nxt is None:
            scalar_fb = True
            live = [pos for pos in sub.tolist() if pos not in fin_set]
            _scalar_feedback(kernel, live, group, length, start)
        else:
            kernel.request[sub] = nxt
    return scalar_fb


def _requests_hold(
    kernel: MultiBatchKernel,
    alloc_arr: np.ndarray,
    req_int: np.ndarray,
    work: np.ndarray,
    span: np.ndarray,
    steps: np.ndarray,
    quanta: int,
) -> bool:
    """Whether every slot's feedback recurrence, fed the predicted repeated
    record ``quanta`` times, leaves its request bit-identical (see
    :meth:`~repro.core.feedback.FeedbackPolicy.advance_request_batch`)."""
    uniform = kernel.uniform_policy
    if uniform is not None:
        return (
            uniform.advance_request_batch(
                request=kernel.request,
                request_int=req_int,
                allotment=alloc_arr,
                work=work,
                span=span,
                steps=steps,
                quanta=quanta,
            )
            is not None
        )
    request = kernel.request
    for policy, sub in kernel.policy_groups():
        nxt = policy.advance_request_batch(
            request=request[sub],
            request_int=req_int[sub],
            allotment=alloc_arr[sub],
            work=work[sub],
            span=span[sub],
            steps=steps[sub],
            quanta=quanta,
        )
        if nxt is None:
            return False
    return True


def _attempt_superstep(
    kernel: MultiBatchKernel,
    log: QuantumLog,
    allocator: Allocator,
    group: QuantumGroup,
    req_int: np.ndarray,
    avail: np.ndarray,
    alloc_arr: np.ndarray,
    processors: int,
    length: int,
    start: int,
    *,
    max_skip: int,
) -> int:
    """Fast-forward up to ``max_skip`` quanta (the rest of the window, which
    ends before the next admission) past the one that just executed at
    ``start``; returns how many were skipped (0 when any check fails).

    The checks, in order: the quantum's feedback left every request at its
    pre-quantum value; every slot's remaining chunk sustains ``K >= 1`` pure
    quanta under the same allotment (closed form, also bounding ``K``); the
    feedback recurrences hold the requests fixed over the predicted
    records; and the allocator certifies (and state-advances through) ``K``
    repeats of its grants.  All are exact, so the emitted repeat-group and
    the fast-forwarded arena state are byte-identical to executing the
    ``K`` quanta one at a time.
    """
    if kernel.request.tobytes() != group.request.tobytes():
        return 0
    plan = kernel.superstep_plan(alloc_arr, length)
    if plan is None:
        return 0
    limit = min(int(plan.quanta.min()), max_skip)
    if limit < 1:
        return 0
    steps_pred = np.full(len(kernel.slots), length, dtype=np.int64)
    if not _requests_hold(
        kernel, alloc_arr, req_int, plan.delta, plan.span, steps_pred, limit
    ):
        return 0
    ids_sorted, order = kernel.allocation_order()
    k = allocator.allocation_fixed_point(
        ids_sorted, req_int[order], alloc_arr[order], processors, limit
    )
    if k < 1:
        return 0
    log.append_quantum(
        start_step=start + length,
        repeat=k,
        index0=kernel.next_q,
        request=group.request,
        request_int=req_int,
        available=avail,
        allotment=alloc_arr,
        work=plan.delta,
        span=plan.span,
        steps=steps_pred,
    )
    kernel.apply_superstep(k, plan, alloc_arr, length)
    return k


@dataclass(slots=True)
class GroupWindowTask:
    """One group's window of quanta: the unit of windowed execution."""

    kernel: MultiBatchKernel
    allocator: Allocator
    budget: int
    """The group's processor budget (what its waterfall divides)."""
    processors: int
    """Machine-wide ``P``, handed to the allocator's ``machine_sizes``
    (which caps the records' ``available`` field, exactly as the serial
    loop computes it)."""
    quantum_length: int
    start: int
    """Machine time at the window's first quantum boundary."""
    quanta: int
    """Window length: how many quanta to advance before the barrier."""
    start_quantum: int
    """Machine quanta executed before this window (orders finished traces
    across groups)."""
    overhead: ReallocationOverhead


@dataclass(slots=True)
class GroupWindowResult:
    """What a window hands back besides the quanta it logged."""

    finished: list[tuple[int, int, int, JobTrace]]
    """``(machine quantum, admission seq, job id, trace)`` per finished
    job — sorting the union across groups reproduces the serial loop's
    finished-trace insertion order."""
    executed: int
    """Quanta actually executed (< ``quanta`` only if the group emptied)."""


def _advance_window(task: GroupWindowTask, log: QuantumLog) -> GroupWindowResult:
    """The batched per-quantum loop: advance one group through its window,
    appending its quanta to ``log`` and evolving the task's kernel and
    allocator in place."""
    kernel: MultiBatchKernel = task.kernel
    allocator = task.allocator
    L = task.quantum_length
    layout_dirty = True
    finished: list[tuple[int, int, int, JobTrace]] = []
    executed = 0
    t = task.start
    while executed < task.quanta and len(kernel) > 0:
        nk = len(kernel)
        if layout_dirty:
            log.set_layout(kernel.jids)
            # A satisfied job's ``available`` is its machine's size.
            machine = allocator.machine_sizes(
                np.asarray(kernel.jids, dtype=np.int64), task.processors
            )
            layout_dirty = False
        req_int = kernel.integer_requests()
        ids_sorted, order = kernel.allocation_order()
        req_sorted = req_int[order]
        grants = allocator.allocate_batch(ids_sorted, req_sorted, task.budget)
        if grants is None:  # routed at simulate entry; defensive here
            raise ValueError(
                "windowed execution requires an array-native allocator "
                "(allocate_batch returned None)"
            )
        validate_allocation_arrays(ids_sorted, req_sorted, grants, task.budget)
        alloc_arr = np.empty(nk, dtype=np.int64)
        alloc_arr[order] = grants
        batch_out = kernel.execute_quantum(alloc_arr, L, task.overhead)
        # Under a partitioning allocator the processors "available" to a
        # job are exactly its (possibly trimmed) share when deprived; when
        # satisfied the size of its machine upper-bounds availability.
        avail = np.where(alloc_arr < req_int, alloc_arr, machine)
        # The group snapshots ``index0``/``request`` before the bump and the
        # in-place feedback writes below; the other columns are fresh
        # arrays this iteration never touches again.
        group = log.append_quantum(
            start_step=t,
            repeat=1,
            index0=kernel.next_q,
            request=kernel.request,
            request_int=req_int,
            available=avail,
            allotment=alloc_arr,
            work=batch_out.work,
            span=batch_out.span,
            steps=batch_out.steps,
        )
        kernel.bump_quantum()
        finished_pos = np.flatnonzero(batch_out.finished).tolist()
        scalar_fb = _batch_feedback(
            kernel, group, req_int, alloc_arr, batch_out, finished_pos, L, t
        )
        for pos in finished_pos:
            slot = kernel.slots[pos]
            finished.append(
                (task.start_quantum + executed, slot.seq, slot.jid, slot.trace)
            )
        if finished_pos:
            kernel.remove(finished_pos)
            layout_dirty = True
        # Superstep: with no event this quantum — nothing finished, no
        # scalar feedback — try to fast-forward through the quanta the
        # group provably repeats.
        skipped = 0
        if not scalar_fb and not finished_pos and len(kernel) > 0:
            skipped = _attempt_superstep(
                kernel,
                log,
                allocator,
                group,
                req_int,
                avail,
                alloc_arr,
                task.budget,
                L,
                t,
                max_skip=task.quanta - executed - 1,
            )
        t += (skipped + 1) * L
        executed += skipped + 1
    return GroupWindowResult(finished=finished, executed=executed)


# perfbench/layers.py is the only reader of ``run_supervised`` (imported
# above, never called) and ``run_group_window`` here, and of
# ``GroupWindowResult`` as a base class.  It swaps ``run_group_window`` for a
# wrapper whose spans nothing merges, so the loop calls ``_advance_window``.
run_group_window = _advance_window


def simulate_windowed(
    pending: Sequence[tuple[int, int, JobSpec]],
    profiles: Mapping[int, Profile],
    allocator: Allocator,
    processors: int,
    *,
    quantum_length: int,
    max_quanta: int,
    overhead: ReallocationOverhead,
    strict: bool,
    per_group: bool,
) -> tuple[dict[int, JobTrace], int]:
    """Run a validated, fully batchable job set window by window; returns
    the finished traces (in the serial loop's insertion order) and the
    quanta elapsed.

    ``pending`` is the ``(release, job id, spec)`` list sorted by release
    then id, ``profiles`` every job's segment profile, and ``allocator``
    must have an array-native ``allocate_batch``.  ``per_group=False`` runs
    a single machine-wide window; ``True`` splits a
    :class:`HierarchicalAllocator` into per-group windows.
    """
    hier = (
        allocator
        if per_group and isinstance(allocator, HierarchicalAllocator)
        else None
    )
    L = quantum_length
    log = QuantumLog(L)
    done: dict[int, JobTrace] = {}
    # A hierarchical allocator's group kernels are built at the first barrier.
    kernels: list[MultiBatchKernel] = (
        [] if hier is not None else [MultiBatchKernel(strict=strict)]
    )
    budgets: list[int] = [] if hier is not None else [processors]
    t = 0
    quanta = 0
    cursor = 0  # next admission index into ``pending`` (the admission seq)

    while cursor < len(pending) or any(len(k) > 0 for k in kernels):
        if quanta >= max_quanta:
            raise RuntimeError(f"job set did not finish within {max_quanta} quanta")
        # Admissions at this boundary are ``pending[first:cursor]``.
        first = cursor
        while cursor < len(pending) and pending[cursor][0] <= t:
            cursor += 1
        if first == cursor and all(len(k) == 0 for k in kernels):
            # Fast-forward to the boundary at/after the next release.
            next_release = pending[cursor][0]
            t = max(t + L, ((next_release + L - 1) // L) * L)
            continue

        # Barrier front half: membership (sync + rebalance) over the active
        # set including this boundary's arrivals, then slot migration and
        # admission into the per-group kernels.
        if hier is not None:
            id_req: list[tuple[int, int]] = []
            for kernel in kernels:
                id_req.extend(zip(kernel.jids, kernel.integer_requests().tolist()))
            for _rel, jid, spec in pending[first:cursor]:
                id_req.append((jid, integer_request(spec.feedback.first_request())))
            id_req.sort()
            ids_arr = np.array([j for j, _ in id_req], dtype=np.int64)
            req_arr = np.array([r for _, r in id_req], dtype=np.int64)
            membership = hier.begin_window(ids_arr, req_arr, processors)
            if not kernels:
                kernels.extend(
                    MultiBatchKernel(strict=strict) for _ in range(hier.group_count)
                )
                budgets.extend(hier.group_budgets())
            for g, kernel in enumerate(kernels):
                moving = [
                    pos for pos, jid in enumerate(kernel.jids) if membership[jid] != g
                ]
                if moving:
                    for state in kernel.export_slots(moving):
                        kernels[membership[state.jid]].import_slot(state)
        for s in range(first, cursor):
            rel, jid, spec = pending[s]
            kernels[membership[jid] if hier is not None else 0].admit(
                jid=jid,
                seq=s,
                spec=spec,
                trace=JobTrace(quantum_length=L, release_time=rel, job_id=jid),
                profile=profiles[jid],
                request=spec.feedback.first_request(),
            )

        # Window length: to the next admission boundary, the next
        # rebalancing boundary, and the quantum ceiling — whichever is
        # nearest.  Always >= 1.
        window = max_quanta - quanta
        if hier is not None:
            window = min(window, hier.quanta_to_rebalance())
        if cursor < len(pending):
            next_boundary = ((pending[cursor][0] + L - 1) // L) * L
            window = min(window, (next_boundary - t) // L)

        results = [
            _advance_window(
                GroupWindowTask(
                    kernel=kernel,
                    allocator=(
                        hier.group_allocator(g) if hier is not None else allocator
                    ),
                    budget=budgets[g],
                    processors=processors,
                    quantum_length=L,
                    start=t,
                    quanta=window,
                    start_quantum=quanta,
                    overhead=overhead,
                ),
                log,
            )
            for g, kernel in enumerate(kernels)
            if len(kernel) > 0
        ]
        executed = max(result.executed for result in results)
        for _q, _s, jid, trace in sorted(
            f for result in results for f in result.finished
        ):
            done[jid] = trace
        if hier is not None:
            hier.advance_window(executed)
        t += executed * L
        quanta += executed
    log.build_traces(done)
    return done, quanta
