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
from ..core.types import JobTrace, integer_request
from ..runtime.supervisor import run_supervised  # noqa: F401
from .jobs import JobSpec
from .multi_batched import MultiBatchKernel, QuantumBatch
from .superstep import QuantumLog

__all__ = [
    "GroupWindowResult",
    "simulate_windowed",
]

#: A batchable job's ``(width, levels)`` segment profile.
Profile = tuple[tuple[int, int], ...]


def _batch_feedback(
    kernel: MultiBatchKernel,
    req_int: np.ndarray,
    alloc_arr: np.ndarray,
    batch_out: QuantumBatch,
) -> None:
    """Post-quantum feedback over the kernel's slots, vectorized per policy
    instance (experiment job sets share one policy object across jobs, so
    the common case is one whole-array batch call, and a Figure 6 chunk
    makes one call per policy).  Requests computed for slots that just
    finished are discarded with the slot, exactly like the serial loop,
    which never updates a finished job's request.
    """
    for policy, sub in kernel.policy_groups():
        nxt = policy.next_request_batch(
            request=kernel.request[sub],
            request_int=req_int[sub],
            allotment=alloc_arr[sub],
            work=batch_out.work[sub],
            span=batch_out.span[sub],
            steps=batch_out.steps[sub],
        )
        assert nxt is not None, "simulate_job_set routes only array-form policies here"
        kernel.request[sub] = nxt


def _request_trajectory(
    kernel: MultiBatchKernel,
    alloc_arr: np.ndarray,
    req_int: np.ndarray,
    work: np.ndarray,
    span: np.ndarray,
    steps: np.ndarray,
    quanta: int,
) -> np.ndarray:
    """Every slot's request trajectory through up to ``quanta`` repeats of
    the predicted record: a ``(k + 1, n)`` array whose first ``k`` rows are
    the repeated quanta's requests and whose last row is the request after
    them (see
    :meth:`~repro.core.feedback.FeedbackPolicy.advance_request_batch`).
    The caller has checked that every request rounds to ``req_int``, so no
    policy refuses."""
    request = kernel.request
    traj = np.empty((quanta + 1, request.size), dtype=np.float64)
    for policy, sub in kernel.policy_groups():
        part = policy.advance_request_batch(
            request=request[sub],
            request_int=req_int[sub],
            allotment=alloc_arr[sub],
            work=work[sub],
            span=span[sub],
            steps=steps[sub],
            quanta=quanta,
        )
        assert part is not None, "row 0 holds: the requests round to req_int"
        # A shorter trajectory caps the later groups' (rows are independent
        # of where a trajectory stops, so the earlier groups' prefixes hold).
        quanta = part.shape[0] - 1
        traj[: quanta + 1, sub] = part
    return traj[: quanta + 1]


def _attempt_superstep(
    kernel: MultiBatchKernel,
    log: QuantumLog,
    allocator: Allocator,
    req_int: np.ndarray,
    next_int: np.ndarray,
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
    ``start`` with integer requests ``req_int``; ``next_int`` are the
    integer requests its feedback left.  Returns how many quanta were
    skipped (0 when any check fails).

    The checks, cheapest first: the quantum's feedback left every integer
    request at ``req_int`` (the real request may still move); every slot's
    remaining chunk sustains ``K >= 1`` pure quanta under the same allotment
    (closed form, also bounding ``K``); the allocator's probe certifies its
    grants repeat (bounding ``K`` again); the feedback recurrences, iterated
    on the predicted records, keep every integer request at ``req_int``
    (their trajectory supplies each skipped quantum's real request and ends
    ``K``); and the allocator certifies (and state-advances through) ``K``
    repeats of its grants.  All are exact, so the emitted repeat-group and
    the fast-forwarded kernel state are byte-identical to executing the
    ``K`` quanta one at a time.
    """
    if not np.array_equal(next_int, req_int):
        return 0
    plan = kernel.superstep_plan(alloc_arr, length)
    if plan is None:
        return 0
    limit = min(int(plan.quanta.min()), max_skip)
    ids_sorted, order = kernel.allocation_order()
    fixed = (ids_sorted, req_int[order], alloc_arr[order], processors)
    limit = allocator.fixed_point_probe(*fixed, limit)
    if limit < 1:
        return 0
    steps_pred = np.full(len(kernel.slots), length, dtype=np.int64)
    traj = _request_trajectory(
        kernel, alloc_arr, req_int, plan.delta, plan.span, steps_pred, limit
    )
    k = allocator.allocation_fixed_point(*fixed, traj.shape[0] - 1)
    if k < 1:
        return 0
    log.append_quantum(
        start_step=start + length,
        repeat=k,
        index0=kernel.next_q,
        request=traj[:k].ravel(order="F"),
        request_int=req_int,
        available=avail,
        allotment=alloc_arr,
        work=plan.delta,
        span=plan.span,
        steps=steps_pred,
    )
    kernel.apply_superstep(k, plan, alloc_arr, length)
    kernel.request = traj[k]
    return k


@dataclass(slots=True)
class GroupWindowResult:
    """What a window hands back besides the quanta it logged."""

    finished: list[tuple[int, int, int, JobTrace]]
    """``(machine quantum, admission seq, job id, trace)`` per finished
    job — sorting the union across groups reproduces the serial loop's
    finished-trace insertion order."""
    executed: int
    """Quanta actually executed (< ``quanta`` only if the group emptied)."""


def _advance_window(
    kernel: MultiBatchKernel,
    allocator: Allocator,
    log: QuantumLog,
    *,
    budget: int,
    processors: int,
    quantum_length: int,
    start: int,
    quanta: int,
    start_quantum: int,
    overhead: ReallocationOverhead,
) -> GroupWindowResult:
    """The batched per-quantum loop: advance one allocation group through
    its window of ``quanta`` quanta, starting at machine time ``start``,
    appending its quanta to ``log`` and evolving ``kernel`` and
    ``allocator`` in place.

    ``budget`` is the group's processor budget (what its waterfall
    divides); ``processors`` the machine-wide ``P``, handed to the
    allocator's ``machine_sizes`` (which caps the records' ``available``
    field, exactly as the serial loop computes it); ``start_quantum`` the
    machine quanta executed before this window (it orders finished traces
    across groups).
    """
    L = quantum_length
    layout_changed = True
    finished: list[tuple[int, int, int, JobTrace]] = []
    executed = 0
    t = start
    # The next quantum's integer requests, when the last iteration computed
    # them to compare against its own.
    next_int: np.ndarray | None = None
    while executed < quanta and len(kernel) > 0:
        nk = len(kernel)
        if layout_changed:
            log.set_layout(kernel.jids)
            # A satisfied job's ``available`` is its machine's size.
            machine = allocator.machine_sizes(
                np.asarray(kernel.jids, dtype=np.int64), processors
            )
            layout_changed = False
        req_int = kernel.integer_requests() if next_int is None else next_int
        ids_sorted, order = kernel.allocation_order()
        req_sorted = req_int[order]
        grants = allocator.allocate_batch(ids_sorted, req_sorted, budget)
        assert grants is not None, "simulate_job_set routes only array-form allocators here"
        validate_allocation_arrays(ids_sorted, req_sorted, grants, budget)
        alloc_arr = np.empty(nk, dtype=np.int64)
        alloc_arr[order] = grants
        batch_out = kernel.execute_quantum(alloc_arr, L, overhead)
        # Under a partitioning allocator the processors "available" to a
        # job are exactly its (possibly trimmed) share when deprived; when
        # satisfied the size of its machine upper-bounds availability.
        avail = np.where(alloc_arr < req_int, alloc_arr, machine)
        # The log snapshots ``index0``/``request`` before the bump and the
        # in-place feedback writes below; the other columns are fresh
        # arrays this iteration never touches again.
        log.append_quantum(
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
        _batch_feedback(kernel, req_int, alloc_arr, batch_out)
        for pos in finished_pos:
            slot = kernel.slots[pos]
            finished.append(
                (start_quantum + executed, slot.seq, slot.jid, slot.trace)
            )
        if finished_pos:
            kernel.remove(finished_pos)
            layout_changed = True
        # Superstep: with no event this quantum (nothing finished) and room
        # left in the window, try to fast-forward through the quanta the
        # group provably repeats.
        next_int = None
        skipped = 0
        if not finished_pos and executed + 1 < quanta:
            next_int = kernel.integer_requests()
            skipped = _attempt_superstep(
                kernel,
                log,
                allocator,
                req_int,
                next_int,
                avail,
                alloc_arr,
                budget,
                L,
                t,
                max_skip=quanta - executed - 1,
            )
            if skipped:
                next_int = None
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
) -> tuple[dict[int, JobTrace], int, QuantumLog]:
    """Run a validated, fully batchable job set window by window; returns
    the finished jobs' traces (in the serial loop's insertion order), the
    quanta elapsed and the run's quantum log.  The traces are still empty:
    their rows are the log's, which :meth:`QuantumLog.build_traces` expands
    into them.

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
        # admission into the per-group kernels.  Each arrival's policy gives
        # its first request once, for both.
        arrivals = [
            (
                jid,
                seq,
                spec,
                JobTrace(quantum_length=L, release_time=rel, job_id=jid),
                profiles[jid],
                spec.feedback.first_request(),
            )
            for seq, (rel, jid, spec) in enumerate(pending[first:cursor], start=first)
        ]
        if hier is not None:
            id_req: list[tuple[int, int]] = []
            for kernel in kernels:
                id_req.extend(zip(kernel.jids, kernel.integer_requests().tolist()))
            id_req.extend((a[0], integer_request(a[-1])) for a in arrivals)
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
                moving: dict[int, list[int]] = {}
                for pos, jid in enumerate(kernel.jids):
                    if membership[jid] != g:
                        moving.setdefault(membership[jid], []).append(pos)
                for dest, positions in moving.items():
                    kernels[dest].absorb(kernel, positions)
                if moving:
                    kernel.remove([p for positions in moving.values() for p in positions])
        admitted: dict[int, list] = {}
        for arrival in arrivals:
            g = membership[arrival[0]] if hier is not None else 0
            admitted.setdefault(g, []).append(arrival)
        for g, mine in admitted.items():
            kernels[g].admit(mine)

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
                kernel,
                hier.group_allocator(g) if hier is not None else allocator,
                log,
                budget=budgets[g],
                processors=processors,
                quantum_length=L,
                start=t,
                quanta=window,
                start_quantum=quanta,
                overhead=overhead,
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
    return done, quanta, log
