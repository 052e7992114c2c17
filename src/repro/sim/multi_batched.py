"""Multi-job batched quantum kernel: one numpy step loop for the whole set.

:func:`repro.sim.multi.simulate_job_set` steps every active job through each
machine-wide scheduling quantum.  The serial loop calls one executor per job
per quantum; with dozens of active jobs (fig6 runs up to ``P = 128``), the
per-call python overhead — not the scheduling arithmetic — dominates the
wall time.  This module lifts the per-job closed form to the *job set*: all
active jobs whose structure is counts-determined are packed into flat numpy
arrays, and an entire quantum (the allocation already computed by DEQ)
executes as array arithmetic over every job at once.

What qualifies
--------------
A job is *batchable* when the executor :func:`repro.sim.jobs.make_executor`
would build for it is a closed-form engine, i.e. when
:func:`repro.sim.jobs.closed_form_phases` gives its ``(width, levels)``
segment profile: a :class:`~repro.engine.phased.PhasedJob` (its phases), or
a level-major :class:`~repro.dag.graph.Dag` headed for the batched dag
executor (its segments, permuted-chain structures included).  Everything
else (reference-engine dags, executor factories such as work stealing,
strict-mode ``engine="auto"`` dags) is not batchable, and a set holding such
a job runs on the serial reference loop.

Why the vectorization is exact
------------------------------
Per quantum, the serial closed form advances each job through a sequence of
``(segment, regime)`` chunks (see :class:`~repro.engine.phased.PhasedExecutor`
— regime 1 sustains ``min(a, w)`` tasks/step, regime 2 drains the last
level).  The kernel's masked vector loop processes, on iteration ``j``, the
``j``-th chunk of every still-running job.  For each job the chunk sequence —
and every integer and IEEE-754 operation inside it, in the same order — is
identical to the serial loop's, so work, span, steps, and the feedback
recurrences that consume them are *bit-identical*, not merely close.  The
test suite cross-validates entire multiprogrammed runs (traces, artifacts)
against the serial path (``tests/test_sim_multi_batched.py``).

Kernel state
------------
Every per-slot field is a plain numpy array holding exactly the live slots,
and the per-segment ``(width, total)`` tables are packed in slot order.
Membership changes (arrivals, finished jobs, migrations between the group
kernels of a hierarchical allocator) build fresh arrays; the per-quantum
path writes only the request, record-index and segment-progress arrays in
place (see :class:`MultiBatchKernel` for the rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.feedback import FeedbackPolicy
from ..core.overhead import ReallocationOverhead
from ..core.types import JobTrace, integer_requests
from ..engine.phased import PhasedExecutor
from .jobs import JobSpec
from .superstep import SuperstepPlan, pure_quantum_counts

__all__ = ["MultiBatchKernel", "QuantumBatch"]


@dataclass(slots=True)
class _Slot:
    """Python-side metadata of one batched job (the kernel's arrays hold
    the rest)."""

    jid: int
    seq: int
    """Admission sequence number — orders finished-trace insertion so the
    result dict matches the serial loop's byte for byte."""
    spec: JobSpec
    trace: JobTrace


#: One arrival at a barrier: ``(job id, admission seq, spec, trace,
#: (width, levels) segment profile, first request)``.
_Arrival = tuple[int, int, JobSpec, JobTrace, tuple[tuple[int, int], ...], float]

#: The per-slot arrays, one value per live slot each, aligned to ``slots``.
_SLOT_FIELDS = ("request", "next_q", "_cur", "_done", "_rem", "_prev_allot", "_seg_len")


@dataclass(frozen=True, slots=True)
class QuantumBatch:
    """Per-slot results of one batched quantum (arrays aligned to slots)."""

    work: np.ndarray
    span: np.ndarray
    steps: np.ndarray
    """Total recorded steps including any reallocation-overhead charge."""
    finished: np.ndarray


def _strict_check(
    work: np.ndarray, span: np.ndarray, steps: np.ndarray, allotment: np.ndarray
) -> None:
    """Re-validate every executed quantum against B-Greedy semantics (strict
    mode): one mask over the slots, then the phased engine's check on the
    first flagged slot, which raises."""
    bad = (work > allotment * steps) | (work < steps) | (span > steps + 1e-9)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        PhasedExecutor._check_quantum(
            int(work[i]), float(span[i]), int(steps[i]), int(allotment[i])
        )


_EMPTY_I64 = np.zeros(0, dtype=np.int64)

_VECTOR_MIN = 12
"""Minimum live-slot count for a vectorized chunk iteration to beat the
scalar closed form (a fixed stack of ~25 small-array numpy ops versus well
under a microsecond per scalar chunk)."""


class MultiBatchKernel:
    """Packed execution state of every batchable active job.

    Each per-slot field is one array that holds exactly the live slots,
    aligned to ``slots``: the real request ``request``, the next record
    index ``next_q``, and the current segment ``_cur``, tasks done on it
    ``_done``, remaining work ``_rem``, previous allotment ``_prev_allot``
    (-1 before the first quantum), segment count ``_seg_len`` and offset
    ``_seg_off``.  Slot ``i``'s segments are rows ``_seg_off[i] :
    _seg_off[i] + _seg_len[i]`` of the flat ``(width, total)`` tables
    ``_seg_w``/``_seg_total``, packed in slot order.

    Slots enter through :meth:`admit` (arrivals) and :meth:`absorb`
    (migrations), both through :meth:`_append`, and leave through
    :meth:`remove`.  Both build fresh arrays and rebuild the sorted-id
    allocation order.  Between membership changes, only ``request``,
    ``next_q``, ``_cur``, ``_done`` and ``_rem`` are written in place; the
    quantum log copies ``request`` and ``next_q`` when it records them.
    ``_prev_allot`` is the allotment array the last quantum ran, the very
    array the log keeps as that quantum's allotment column, so it is only
    ever rebound.
    """

    __slots__ = (
        "slots",
        "jids",
        *_SLOT_FIELDS,
        "_seg_off",
        "_seg_w",
        "_seg_total",
        "_sorted_jids",
        "_id_order",
        "_strict",
        "_policy_groups",
    )

    def __init__(self, *, strict: bool = False):
        self.slots: list[_Slot] = []
        self.jids: list[int] = []
        """Job ids aligned to ``slots`` (kept as a plain list for cheap
        per-quantum allocation-dict construction and gathering)."""
        self.request = np.zeros(0, dtype=np.float64)
        """Real-valued controller requests ``d(q)``, aligned to ``slots``.
        The simulation loop reads it to build records and writes the
        feedback recurrences' results back into it."""
        self.next_q = _EMPTY_I64
        """Per-slot index of the *next* quantum record (starts at 1)."""
        self._cur = self._done = self._rem = self._prev_allot = _EMPTY_I64
        self._seg_len = self._seg_off = self._seg_w = self._seg_total = _EMPTY_I64
        self._sorted_jids = self._id_order = _EMPTY_I64
        self._strict = bool(strict)
        self._policy_groups: list[tuple[FeedbackPolicy, np.ndarray | slice]] | None = None

    def __len__(self) -> int:
        return len(self.slots)

    def policy_groups(self) -> list[tuple[FeedbackPolicy, np.ndarray | slice]]:
        """``(policy, positions)`` per distinct feedback-policy instance: the
        feedback step's batch calls (e.g. one ABG and one A-Greedy instance
        over many machines).  When one instance holds every slot (experiment
        job sets share one policy object across jobs), ``positions`` is
        ``slice(None)``, so the common case reads views and gathers nothing.
        Cached until a slot is appended; removal remaps the cache."""
        if self._policy_groups is None:
            groups: dict[int, list[int]] = {}
            for pos, slot in enumerate(self.slots):
                groups.setdefault(id(slot.spec.feedback), []).append(pos)
            if len(groups) == 1:
                self._policy_groups = [(self.slots[0].spec.feedback, slice(None))]
            else:
                self._policy_groups = [
                    (self.slots[positions[0]].spec.feedback, np.asarray(positions, dtype=np.int64))
                    for positions in groups.values()
                ]
        return self._policy_groups

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def admit(self, arrivals: Sequence[_Arrival]) -> None:
        """Add a barrier's batchable arrivals, in order, as fresh jobs."""
        n = len(arrivals)
        profiles = [profile for *_, profile, _ in arrivals]
        seg_w = np.array([w for p in profiles for w, _ in p], dtype=np.int64)
        seg_k = np.array([k for p in profiles for _, k in p], dtype=np.int64)
        seg_total = seg_w * seg_k
        self._append(
            [_Slot(jid, seq, spec, trace) for jid, seq, spec, trace, _, _ in arrivals],
            {
                "request": np.array([a[-1] for a in arrivals], dtype=np.float64),
                "next_q": np.ones(n, dtype=np.int64),
                "_cur": np.zeros(n, dtype=np.int64),
                "_done": np.zeros(n, dtype=np.int64),
                "_rem": np.array(
                    [sum(w * k for w, k in p) for p in profiles], dtype=np.int64
                ),
                "_prev_allot": np.full(n, -1, dtype=np.int64),
                "_seg_len": np.array([len(p) for p in profiles], dtype=np.int64),
            },
            seg_w,
            seg_total,
        )

    def absorb(self, src: MultiBatchKernel, positions: list[int]) -> None:
        """Append copies of ``src``'s slots at ``positions`` with their
        mid-run state intact (migration between group kernels; the caller
        then removes them from ``src``), so the moved jobs' later quanta are
        bit-identical to never having moved."""
        pos = np.asarray(positions, dtype=np.int64)
        seg_len = src._seg_len[pos]
        # Row ``r`` of the gathered tables is ``src``'s row ``r`` shifted by
        # its slot's offset in ``src`` less the offset it gets here.
        shift = src._seg_off[pos] - (np.cumsum(seg_len) - seg_len)
        rows = np.arange(int(seg_len.sum()), dtype=np.int64) + np.repeat(shift, seg_len)
        self._append(
            [src.slots[p] for p in positions],
            {name: getattr(src, name)[pos] for name in _SLOT_FIELDS},
            src._seg_w[rows],
            src._seg_total[rows],
        )

    def _append(
        self,
        slots: list[_Slot],
        state: dict[str, np.ndarray],
        seg_w: np.ndarray,
        seg_total: np.ndarray,
    ) -> None:
        """Append ``slots`` with their per-slot ``state`` (one array per
        :data:`_SLOT_FIELDS` name) and their packed segment rows."""
        for name in _SLOT_FIELDS:
            setattr(self, name, np.concatenate((getattr(self, name), state[name])))
        self._seg_w = np.concatenate((self._seg_w, seg_w))
        self._seg_total = np.concatenate((self._seg_total, seg_total))
        self.slots.extend(slots)
        self._policy_groups = None
        self._relayout()

    def remove(self, positions: list[int]) -> None:
        """Drop the slots at ``positions`` (finished jobs, whose traces were
        already handed out, or migrated ones)."""
        keep = np.ones(len(self.slots), dtype=bool)
        keep[positions] = False
        seg_keep = np.repeat(keep, self._seg_len)
        for name in _SLOT_FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        self._seg_w = self._seg_w[seg_keep]
        self._seg_total = self._seg_total[seg_keep]
        self.slots = [s for s, k in zip(self.slots, keep) if k]
        groups = self._policy_groups
        if groups is not None and len(groups) > 1:
            # Removal keeps the slots' relative order: remap the positions.
            # Down to one instance, the next call rebuilds its whole slice.
            new_pos = np.cumsum(keep) - 1
            groups = [
                (policy, new_pos[sub][keep[sub]])
                for policy, sub in groups
                if keep[sub].any()
            ]
            self._policy_groups = groups if len(groups) > 1 else None
        self._relayout()

    def _relayout(self) -> None:
        """Rebuild what the slot set determines: ``jids``, the segment
        offsets and the sorted-id allocation order."""
        self.jids = [slot.jid for slot in self.slots]
        self._seg_off = np.cumsum(self._seg_len) - self._seg_len
        jids = np.array(self.jids, dtype=np.int64)
        self._id_order = np.argsort(jids, kind="stable")  # jids are unique
        self._sorted_jids = jids[self._id_order]

    def allocation_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_jids, order)`` for the array-native allocation path:
        ``sorted_jids`` are the slots' job ids in increasing order and
        ``order`` the slot positions producing it (``jids[order[i]] ==
        sorted_jids[i]``)."""
        return self._sorted_jids, self._id_order

    # ------------------------------------------------------------------

    def integer_requests(self) -> np.ndarray:
        """:func:`repro.core.types.integer_requests` over all slots, with
        :func:`~repro.core.types.integer_request`'s validation."""
        d = self.request
        ok = d >= 0  # NaN fails the comparison, so one mask catches both
        if not ok.all():
            offender = float(d[int(np.flatnonzero(~ok)[0])])
            raise ValueError(f"invalid processor request {offender!r}")
        return integer_requests(d)

    def execute_quantum(
        self, alloc: np.ndarray, length: int, overhead: ReallocationOverhead
    ) -> QuantumBatch:
        """Run one machine-wide quantum for every slot as array arithmetic.

        ``alloc`` is the allocator's per-slot grant (aligned to ``slots``).
        Replicates :func:`repro.sim.single.run_quantum_with_overhead` — an
        allotment change charges overhead steps up front, and a quantum fully
        consumed by overhead executes nothing — then advances every running
        slot through its ``(segment, regime)`` chunks.

        Chunk counts are heavily skewed (one or two per job-quantum in the
        paper's workloads), so vectorized iterations — each a fixed stack of
        array ops — only pay while many slots are still running.  The loop
        therefore goes wide only above :data:`_VECTOR_MIN` live slots and
        finishes the stragglers with the scalar closed form, which is both
        faster on a handful of slots and trivially bit-identical to the
        per-job engines.
        """
        n = len(self.slots)
        a = alloc
        if overhead.is_free:
            # Fast path: no per-slot costs, every slot executes the full
            # quantum, and recorded steps equal executed steps.  Every slot
            # is live at the quantum's start (finished slots were removed at
            # the boundary), so the first chunk runs unmasked on the full
            # arrays — no gathers, no scatters.
            if n and int(a.min()) < 1:
                # Same guard the per-job engines apply
                # (base._check_quantum_args).
                raise ValueError("allotment must be >= 1 for an active job")
            g = self._seg_off + self._cur
            w = self._seg_w[g]
            total = self._seg_total[g]
            done = self._done
            boundary = total - w
            regime1 = done < boundary
            rate = np.minimum(a, w)
            remaining = total - done
            need = np.where(
                regime1, -(-(boundary - done) // rate), -(-remaining // a)
            )
            use = np.minimum(length, need)
            delta = np.where(regime1, rate * use, np.minimum(a * use, remaining))
            done = done + delta
            work = delta
            span = delta / w
            steps_left = length - use
            self._rem -= delta
            seg_done = done == total
            self._cur += seg_done
            self._done = np.where(seg_done, 0, done)

            live = np.flatnonzero((steps_left > 0) & (self._rem > 0))
            while live.size >= _VECTOR_MIN:
                live = self._advance_masked(live, a, work, span, steps_left)
            if live.size:
                self._finish_scalar(live, a, work, span, steps_left)

            steps = length - steps_left
            finished = self._rem == 0
            self._prev_allot = a
            if self._strict and n:
                _strict_check(work, span, steps, a)
            return QuantumBatch(work=work, span=span, steps=steps, finished=finished)
        raw = overhead.fixed + overhead.per_processor * np.abs(a - self._prev_allot)
        costs = np.minimum(length, np.round(raw).astype(np.int64))
        costs[(self._prev_allot < 0) | (a == self._prev_allot)] = 0
        run = length - costs
        execute = run > 0
        if np.any(execute & (a < 1)):
            # As in run_quantum_with_overhead, a quantum fully consumed
            # by overhead never reaches the engine's allotment guard.
            raise ValueError("allotment must be >= 1 for an active job")
        steps_left = np.where(execute, run, 0)

        work = np.zeros(n, dtype=np.int64)
        span = np.zeros(n, dtype=np.float64)

        live = np.flatnonzero((steps_left > 0) & (self._rem > 0))
        while live.size >= _VECTOR_MIN:
            live = self._advance_masked(live, a, work, span, steps_left)
        if live.size:
            self._finish_scalar(live, a, work, span, steps_left)

        used = np.where(execute, run - steps_left, 0)
        steps = np.where(execute, costs + used, length)
        finished = self._rem == 0
        self._prev_allot = a
        if self._strict and n:
            _strict_check(work[execute], span[execute], used[execute], a[execute])
        return QuantumBatch(work=work, span=span, steps=steps, finished=finished)

    def _advance_masked(
        self,
        idx: np.ndarray,
        a: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps_left: np.ndarray,
    ) -> np.ndarray:
        """One vectorized chunk for the ``idx`` slots; returns the slots
        still running afterwards."""
        al = a[idx]
        cur = self._cur[idx]
        g = self._seg_off[idx] + cur
        w = self._seg_w[g]
        total = self._seg_total[g]
        done = self._done[idx]
        sl = steps_left[idx]
        boundary = total - w  # tasks strictly before the segment's last level
        regime1 = done < boundary
        # Regime 1 sustains min(a, w) tasks/step (the wavefront is full);
        # regime 2 drains the last level at min(a, remaining)/step.  Both
        # need counts are ceiling divisions, evaluated per element with
        # the same integer arithmetic as the serial closed form.
        rate = np.minimum(al, w)
        remaining = total - done
        need = np.where(regime1, -(-(boundary - done) // rate), -(-remaining // al))
        use = np.minimum(sl, need)
        delta = np.where(regime1, rate * use, np.minimum(al * use, remaining))
        done = done + delta
        work[idx] += delta
        span[idx] += delta / w
        steps_left[idx] = sl - use
        self._rem[idx] -= delta
        seg_done = done == total
        self._cur[idx] = cur + seg_done
        self._done[idx] = np.where(seg_done, 0, done)
        return idx[(steps_left[idx] > 0) & (self._rem[idx] > 0)]

    def _finish_scalar(
        self,
        live: np.ndarray,
        a: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps_left: np.ndarray,
    ) -> None:
        """Drain the remaining live slots with the scalar closed form — a
        direct port of the per-job engines' chunk loop (python ints and the
        same IEEE-754 additions, continuing each slot's in-quantum span
        accumulation in chunk order)."""
        seg_off = self._seg_off
        seg_w = self._seg_w
        seg_total = self._seg_total
        cur = self._cur
        done_arr = self._done
        rem_arr = self._rem
        for i in live.tolist():
            ai = int(a[i])
            sl = int(steps_left[i])
            base = int(seg_off[i])
            c = int(cur[i])
            d = int(done_arr[i])
            rem = int(rem_arr[i])
            wk = int(work[i])
            sp = float(span[i])
            while sl > 0 and rem > 0:
                w = int(seg_w[base + c])
                total = int(seg_total[base + c])
                boundary = total - w
                if d < boundary:
                    rate = ai if ai < w else w
                    need = -(-(boundary - d) // rate)
                    use = sl if sl < need else need
                    delta = rate * use
                else:
                    r = total - d
                    need = -(-r // ai)
                    use = sl if sl < need else need
                    cap = ai * use
                    delta = cap if cap < r else r
                d += delta
                wk += delta
                sp += delta / w
                sl -= use
                rem -= delta
                if d == total:
                    c += 1
                    d = 0
            cur[i] = c
            done_arr[i] = d
            rem_arr[i] = rem
            work[i] = wk
            span[i] = sp
            steps_left[i] = sl

    # ------------------------------------------------------------------
    # Superstep fast-forward
    # ------------------------------------------------------------------

    def bump_quantum(self) -> None:
        """Advance every slot's next-record index by one executed quantum."""
        self.next_q += 1

    def superstep_plan(self, alloc: np.ndarray, length: int) -> SuperstepPlan | None:
        """Closed-form count of the pure quanta every slot can
        fast-forward under the (fixed) allotment ``alloc``, or ``None`` when
        some slot reaches an event — a chunk boundary, segment transition,
        or completion — within the very next quantum.

        See :func:`repro.sim.superstep.pure_quantum_counts` for the per-slot
        regime arithmetic; the plan's ``delta``/``span`` are exactly the
        ``work``/``span`` each repeated record will carry.
        """
        if not self.slots:
            return None
        g = self._seg_off + self._cur
        w = self._seg_w[g]
        total = self._seg_total[g]
        done = self._done
        boundary = total - w
        quanta, delta = pure_quantum_counts(
            alloc=alloc,
            width=w,
            seg_remaining=total - done,
            to_boundary=boundary - done,
            regime1=done < boundary,
            length=length,
        )
        if int(quanta.min()) < 1:
            return None
        return SuperstepPlan(quanta=quanta, delta=delta, span=delta / w)

    def apply_superstep(
        self, k: int, plan: SuperstepPlan, alloc: np.ndarray, length: int
    ) -> None:
        """Fast-forward every slot ``k`` quanta (``k <= plan.quanta.min()``).

        Pure quanta never cross a segment boundary, so only the done/remaining
        counters and the record indices move; the segment cursor and
        ``_prev_allot`` (already ``alloc``) are untouched — exactly
        the state ``k`` calls of :meth:`execute_quantum` would leave.
        """
        moved = k * plan.delta
        self._done += moved
        self._rem -= moved
        self.next_q += k
        if self._strict:
            _strict_check(
                plan.delta,
                plan.span,
                np.full(len(self.slots), length, dtype=np.int64),
                alloc,
            )
