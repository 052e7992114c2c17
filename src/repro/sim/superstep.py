"""Whole-run superstep layer: columnar quantum log, closed forms.

PR 5's kernel vectorized *within* a machine quantum; the remaining per-quantum
python — record materialization and the quantum loop itself — still bounded
full-scale fig6.  This module supplies the two pieces that lift the kernel
(:class:`~repro.sim.multi_batched.MultiBatchKernel`) to whole-*run*
granularity:

:class:`QuantumLog`
    Columnar record emission for the whole simulation: per quantum the
    simulation loop appends one *group* of aligned column arrays (O(1) python,
    no per-slot work), and a superstep of ``K`` quanta appends one group
    with ``repeat=K``.  The ``K`` quanta repeat every column but the real
    request, which may still converge towards the integer request it holds
    (the group stores it per row).  The log outlives the run as its
    result: per-job totals and per-machine quantum counts are sums over
    its compact rows weighted by ``repeat``, and
    :meth:`QuantumLog.build_traces` expands the rows into per-job
    :class:`~repro.core.columnar.TraceColumns` only when someone reads the
    traces — records themselves are never built unless someone asks for
    them.

:func:`pure_quantum_counts`
    The closed form behind multi-quantum fast-forwarding.  A quantum is
    *pure* for a job when a single ``(segment, regime)`` chunk consumes the
    entire quantum — then the quantum's measurements are fully determined
    by ``(allotment, width, regime)`` and repeat unchanged.  The function
    counts, per slot, how many consecutive pure quanta remain from the
    current state:

    - regime 1 (wavefront full, ``done < total - w``): each pure quantum
      completes ``rate*L`` tasks with ``rate = min(a, w)``; the chunk spans
      the whole quantum while ``boundary - done > rate*(L-1)``, giving
      ``n1 = floor((D - rate*(L-1) - 1) / (rate*L)) + 1`` such quanta (0 when
      ``D <= rate*(L-1)``).  Regime-1 overshoot is bounded by
      ``rate - 1 < w``, so a pure regime-1 quantum can never complete the
      segment.
    - regime 2 (draining the last level): each pure quantum completes
      ``a*L`` tasks; quanta stay pure *and non-completing* while the
      segment's remaining work exceeds ``a*L``, giving
      ``n2 = floor((R - 1) / (a*L))``.  A quantum that finishes the segment
      exactly at the boundary is an *event* (segment transition or job
      completion) and is deliberately left to the normal per-quantum path.

    Every count uses the same int64 ceiling/floor arithmetic as the serial
    chunk loop, so fast-forwarded state (``done += K*delta``) and the
    repeated records (``work = delta``, ``span = delta/w``, ``steps = L``)
    are bit-identical to executing the ``K`` quanta one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, MutableMapping, Sequence

import numpy as np

from ..core.columnar import TraceColumns
from ..core.types import JobTrace, columns_valid, quantum_records_from_columns
from .metrics import JobSummaries

__all__ = [
    "SuperstepPlan",
    "QuantumGroup",
    "QuantumLog",
    "pure_quantum_counts",
]


@dataclass(frozen=True, slots=True)
class SuperstepPlan:
    """Per-slot closed-form description of the upcoming pure quanta.

    ``quanta[i]`` is how many consecutive pure quanta slot ``i`` can
    fast-forward; each completes ``delta[i]`` tasks (= the record's work)
    with span ``span[i]`` over the full quantum length.
    """

    quanta: np.ndarray
    delta: np.ndarray
    span: np.ndarray


def pure_quantum_counts(
    *,
    alloc: np.ndarray,
    width: np.ndarray,
    seg_remaining: np.ndarray,
    to_boundary: np.ndarray,
    regime1: np.ndarray,
    length: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(quanta, delta)``: consecutive pure quanta per slot, and the tasks
    each completes — see the module docstring for the derivation.

    ``to_boundary`` is ``boundary - done`` (may be <= 0 in regime 2),
    ``seg_remaining`` is ``total - done``, and ``regime1`` the regime mask.
    All arrays are int64 (mask excepted) and ``alloc >= 1``.
    """
    rate = np.minimum(alloc, width)
    per_q1 = rate * length
    lim1 = rate * (length - 1)
    n1 = np.where(
        to_boundary > lim1, (to_boundary - lim1 - 1) // per_q1 + 1, 0
    )
    per_q2 = alloc * length
    n2 = (seg_remaining - 1) // per_q2
    quanta = np.where(regime1, n1, n2)
    delta = np.where(regime1, per_q1, per_q2)
    return quanta, delta


@dataclass(slots=True)
class QuantumGroup:
    """One emitted stretch of ``repeat`` machine quanta that differ at most
    in their requests: ``request`` holds one value per row, slot-major,
    every other column one value per slot."""

    epoch: int
    start_step: int
    repeat: int
    index0: np.ndarray
    request: np.ndarray
    request_int: np.ndarray
    available: np.ndarray
    allotment: np.ndarray
    work: np.ndarray
    span: np.ndarray
    steps: np.ndarray


class QuantumLog:
    """Simulation-wide columnar record store with layout epochs.

    Rows are machine-quantum-major: each appended group carries one value per
    live slot, aligned to the slot layout (job ids) registered by the most
    recent :meth:`set_layout` call.  A finished log is the windowed run's
    result, kept compact: :meth:`job_summaries` and :meth:`quanta_per_owner`
    read the set-level metrics and artifact rows off its compact rows, and
    :meth:`build_traces` expands them into per-job traces only for a caller
    that reads the traces (:class:`~repro.sim.multi.MultiJobResult` runs it
    on the first read of ``traces``).
    """

    __slots__ = ("quantum_length", "_layouts", "_epoch", "_groups")

    def __init__(self, quantum_length: int) -> None:
        self.quantum_length = quantum_length
        self._layouts: list[np.ndarray] = []
        self._epoch = -1
        self._groups: list[QuantumGroup] = []

    def __len__(self) -> int:
        return len(self._groups)

    def set_layout(self, jids: Sequence[int]) -> None:
        """Register the current slot->job-id layout (call after every
        admission/removal; cheap relative to how rarely membership changes)."""
        # np.array, not np.asarray: the stored epoch must own its memory,
        # whatever the caller does with the sequence it hands in later
        self._layouts.append(np.array(jids, dtype=np.int64))
        self._epoch += 1

    def append_quantum(
        self,
        *,
        start_step: int,
        repeat: int,
        index0: np.ndarray,
        request: np.ndarray,
        request_int: np.ndarray,
        available: np.ndarray,
        allotment: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps: np.ndarray,
    ) -> QuantumGroup:
        """Record ``repeat`` consecutive quanta, the first starting at
        ``start_step``, that repeat every column but ``request``.

        ``request`` holds one value per emitted row, slot-major (slot ``i``'s
        ``repeat`` requests are consecutive).  ``index0`` and ``request``
        are snapshotted (the simulation mutates them in place after
        emission); the remaining columns carry one value per slot and must
        be freshly-computed arrays that are never written again.

        Validation mirrors the per-record path: one vectorized pass over the
        row invariants, falling back to scalar construction on failure so the
        offending row raises exactly the record constructor's error at
        exactly the quantum that produced it.
        """
        quantum_length = self.quantum_length
        index0 = index0.copy()
        request = request.copy()
        if not columns_valid(
            index=index0,
            request_int=request_int,
            available=available,
            allotment=allotment,
            work=work,
            span=span,
            steps=steps,
            quantum_length=quantum_length,
        ):
            # Raise the scalar constructor's error for the first bad row.
            quantum_records_from_columns(
                index=index0.tolist(),
                request=request[::repeat],
                request_int=request_int,
                available=available,
                allotment=allotment,
                work=work,
                span=span,
                steps=steps,
                quantum_length=quantum_length,
                start_step=start_step,
            )
        group = QuantumGroup(
            epoch=self._epoch,
            start_step=start_step,
            repeat=repeat,
            index0=index0,
            request=request,
            request_int=request_int,
            available=available,
            allotment=allotment,
            work=work,
            span=span,
            steps=steps,
        )
        self._groups.append(group)
        return group

    # ------------------------------------------------------------------

    def _rows_by_job(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, heads, jobs)``: the stable order that sorts the compact
        rows (one per slot per group, group-major) by job id, the sorted
        position of each job's first row, and each job's id, ascending.

        Group order is chronological and a job holds one slot per group,
        so each job's sorted rows stay in quantum order.
        """
        jid_all = np.concatenate([self._layouts[grp.epoch] for grp in self._groups])
        order = np.argsort(jid_all, kind="stable")
        jid_sorted = jid_all[order]
        heads = np.flatnonzero(np.concatenate(([True], jid_sorted[1:] != jid_sorted[:-1])))
        return order, heads, jid_sorted[heads]

    def job_summaries(self, traces: Mapping[int, JobTrace]) -> JobSummaries:
        """The logged jobs' :class:`~repro.sim.metrics.JobSummaries`, listed
        in the order of ``traces``, which holds every logged job's trace
        (empty or built) and gives each job's release time.

        Each compact row stands for ``repeat`` quanta with equal ``steps``,
        ``work`` and ``allotment``, so a job's totals are its rows' values
        weighted by ``repeat``: exact int64 sums equal to the expanded
        rows'.  Sorted by job (:meth:`_rows_by_job`), a job's first row
        holds its first ``start_step``.
        """
        groups = self._groups
        ids = np.fromiter(traces, dtype=np.int64, count=len(traces))
        if not groups:
            if ids.size:
                raise ValueError("the log holds no quanta of the traces' jobs")
            return JobSummaries(*([ids] * 7))
        sizes = [grp.index0.size for grp in groups]
        repeat = np.repeat([grp.repeat for grp in groups], sizes)
        start = np.repeat([grp.start_step for grp in groups], sizes)
        steps = np.concatenate([grp.steps for grp in groups])
        work = np.concatenate([grp.work for grp in groups])
        allotment = np.concatenate([grp.allotment for grp in groups])
        order, heads, jobs = self._rows_by_job()
        if not np.array_equal(jobs, np.sort(ids)):
            raise ValueError("the traces' jobs are not the log's jobs")
        # Job ``ids[i]`` is the log's ``at[i]``-th job.
        at = np.searchsorted(jobs, ids)

        def by_job(per_row: np.ndarray) -> np.ndarray:
            return np.add.reduceat(per_row[order], heads)[at]

        running = by_job(steps * repeat)
        return JobSummaries(
            job_id=ids,
            release_time=np.array([t.release_time for t in traces.values()], dtype=np.int64),
            records=by_job(repeat),
            running_time=running,
            total_work=by_job(work * repeat),
            total_waste=by_job((allotment * steps - work) * repeat),
            completion_time=start[order][heads[at]] + running,
        )

    def quanta_per_owner(
        self, owner: Callable[[np.ndarray], np.ndarray], owners: int
    ) -> np.ndarray:
        """How many distinct quanta each of ``owners`` owners ran, where
        ``owner`` maps an array of job ids to owner indices.

        An owner ran a group's ``repeat`` quanta when the group holds one
        of its jobs.  Groups of different per-group windows cover the same
        quanta, so the count is the size of the union of those ranges, not
        a sum of repeats.
        """
        groups = self._groups
        if not groups:
            return np.zeros(owners, dtype=np.int64)
        L = self.quantum_length
        held = [np.unique(owner(layout)) for layout in self._layouts]
        sizes = [held[grp.epoch].size for grp in groups]
        who = np.concatenate([held[grp.epoch] for grp in groups])
        first = np.repeat([grp.start_step // L for grp in groups], sizes)
        stop = first + np.repeat([grp.repeat for grp in groups], sizes)
        # Sort each owner's ranges by start, and shift each owner's past the
        # one before it, so one running maximum covers every owner.
        order = np.lexsort((first, who))
        who = who[order]
        shift = who * (int(stop.max()) + 1)
        first, stop = first[order] + shift, stop[order] + shift
        covered = np.maximum.accumulate(stop)
        new_from = np.maximum(first, np.concatenate((first[:1], covered[:-1])))
        fresh = np.maximum(stop - new_from, 0)
        return np.bincount(who, weights=fresh, minlength=owners).astype(np.int64)

    def build_traces(self, traces: MutableMapping[int, JobTrace]) -> None:
        """Sort the logged rows by job once, and replace every logged job's
        (empty) trace with one backed by its :class:`TraceColumns` view.

        The sort runs on the compact rows (:meth:`_rows_by_job`), which
        leaves each job's rows in quantum order.  Only then are repeat
        groups expanded, each compact row into
        its ``repeat`` consecutive quanta, with the per-row requests
        gathered through the expanded order.
        """
        groups = self._groups
        if not groups:
            return
        L = self.quantum_length
        sizes = np.array([grp.index0.size for grp in groups], dtype=np.int64)
        repeats = np.array([grp.repeat for grp in groups], dtype=np.int64)
        order, heads, jobs = self._rows_by_job()
        cols = {
            name: np.concatenate([getattr(grp, name) for grp in groups])[order]
            for name in (
                "request_int",
                "available",
                "allotment",
                "work",
                "span",
                "steps",
            )
        }
        cols["index"] = np.concatenate([grp.index0 for grp in groups])[order]
        group_start = np.array([grp.start_step for grp in groups], dtype=np.int64)
        cols["start_step"] = np.repeat(group_start, sizes)[order]
        request = np.concatenate([grp.request for grp in groups])
        # Each job's compact rows are ``edges[i]:edges[i + 1]``.
        edges = np.concatenate((heads, [order.size]))
        if int(repeats.max()) == 1:
            cols["request"] = request[order]
        else:
            # Requests are group-major and slot-major, so compact row ``c``'s
            # ``repeat`` requests follow those of every compact row before it.
            per_slot = np.repeat(repeats, sizes)
            first = (np.cumsum(per_slot) - per_slot)[order]
            counts = per_slot[order]
            # Expanded row -> its quantum within its compact row.
            row0 = np.concatenate(([0], np.cumsum(counts)))
            offset = np.arange(row0[-1], dtype=np.int64) - np.repeat(
                row0[:-1], counts
            )
            cols = {name: np.repeat(col, counts) for name, col in cols.items()}
            cols["index"] += offset
            cols["start_step"] += L * offset
            cols["request"] = request[np.repeat(first, counts) + offset]
            edges = row0[edges]
        # One zero-stride column of L shared by every job's slice.
        cols["quantum_length"] = np.broadcast_to(np.int64(L), (int(edges[-1]),))
        for jid, a, b in zip(jobs.tolist(), edges[:-1].tolist(), edges[1:].tolist()):
            empty = traces[jid]
            traces[jid] = JobTrace(
                empty.quantum_length,
                TraceColumns(**{name: col[a:b] for name, col in cols.items()}),
                release_time=empty.release_time,
                job_id=empty.job_id,
            )
