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
would select for it is one of the closed-form engines, i.e. when its
execution is fully described by a ``(width, levels)`` segment profile:

- a :class:`~repro.engine.phased.PhasedJob` (always runs the phased closed
  form — its phases are the profile), or
- a level-major :class:`~repro.dag.graph.Dag` headed for the batched kernel
  (``engine="batched"``, or ``engine="auto"`` in non-strict mode — the
  cached :class:`~repro.dag.structure.LevelStructure` supplies the profile,
  including the permuted-chain structures PR 5 lifted into eligibility).

Everything else (reference-engine dags, executor factories such as work
stealing, strict-mode ``engine="auto"`` dags) is not batchable, and a set
holding such a job runs on the serial reference loop — see
:func:`segment_profile`.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.feedback import FeedbackPolicy
from ..core.overhead import ReallocationOverhead
from ..core.types import JobTrace
from ..dag.graph import Dag
from ..engine.batched import supports_batched
from ..engine.phased import PhasedJob
from ..verify.violations import (
    InvariantError,
    V_IDLE_WITH_READY_TASKS,
    V_SPAN_EXCEEDS_STEPS,
    V_WORK_EXCEEDS_CAPACITY,
    Violation,
)
from .jobs import JobSpec
from .superstep import SuperstepArena, SuperstepPlan, pure_quantum_counts

__all__ = ["MultiBatchKernel", "QuantumBatch", "SlotState", "segment_profile"]


def segment_profile(
    spec: JobSpec, *, strict: bool
) -> tuple[tuple[int, int], ...] | None:
    """The ``(width, levels)`` segment profile of a batchable job, else None.

    Mirrors :func:`repro.sim.jobs.make_executor` exactly: a profile is
    returned precisely when the executor the serial path would build is a
    closed-form engine whose results the kernel reproduces bit-for-bit.  A
    non-level-major dag with ``engine="batched"`` also returns ``None`` — the
    serial loop's ``make_executor`` then raises the canonical
    :class:`~repro.engine.batched.UnsupportedDagStructure` at admission.
    """
    job = spec.job
    if isinstance(job, PhasedJob):
        # make_executor always picks PhasedExecutor for phased jobs.
        return tuple((p.width, p.levels) for p in job.phases)
    if isinstance(job, Dag):
        if spec.engine == "batched":
            if not job.structure.level_major:
                return None
            return tuple(job.structure.segment_phases())
        if (
            spec.engine == "auto"
            and not strict
            and supports_batched(job, spec.discipline)
        ):
            return tuple(job.structure.segment_phases())
    return None


@dataclass(slots=True)
class _Slot:
    """Python-side metadata of one batched job (the arena holds the rest)."""

    jid: int
    seq: int
    """Admission sequence number — orders finished-trace insertion so the
    result dict matches the serial loop's byte for byte."""
    spec: JobSpec
    policy: FeedbackPolicy
    trace: JobTrace


@dataclass(slots=True)
class SlotState:
    """A slot's complete mid-run state, detached from its kernel.

    The windowed loop migrates jobs between per-group kernels at
    rebalancing barriers by exporting a :class:`SlotState` from one kernel
    and importing it into another; every field a fresh admission would
    initialize is carried verbatim, so the migrated job's subsequent quanta
    are bit-identical to never having moved.
    """

    jid: int
    seq: int
    spec: JobSpec
    trace: JobTrace
    request: float
    cur: int
    done: int
    rem: int
    prev_allot: int
    next_q: int
    seg_w: np.ndarray
    seg_total: np.ndarray


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
    mode) — the same three invariants the per-job engines re-check."""
    bad = work > allotment * steps
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise InvariantError(
            Violation(
                V_WORK_EXCEEDS_CAPACITY,
                f"multi-job kernel produced T1(q)={int(work[i])} > a*steps="
                f"{int(allotment[i] * steps[i])}",
            )
        )
    bad = work < steps
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise InvariantError(
            Violation(
                V_IDLE_WITH_READY_TASKS,
                f"multi-job kernel produced T1(q)={int(work[i])} < steps="
                f"{int(steps[i])}; greedy completes at least one task per step",
            )
        )
    bad = span > steps + 1e-9
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise InvariantError(
            Violation(
                V_SPAN_EXCEEDS_STEPS,
                f"multi-job kernel produced Tinf(q)={float(span[i])} > steps="
                f"{int(steps[i])}; breadth-first advances at most one level "
                "per step",
            )
        )


_EMPTY_I64 = np.zeros(0, dtype=np.int64)

_VECTOR_MIN = 12
"""Minimum live-slot count for a vectorized chunk iteration to beat the
scalar closed form (a fixed stack of ~25 small-array numpy ops versus well
under a microsecond per scalar chunk)."""


class MultiBatchKernel:
    """Packed execution state of every batchable active job.

    Per-slot state — ``request``, current segment, tasks done on it,
    remaining work, previous allotment, next quantum index — and the packed
    per-segment ``(width, total)`` tables all live in one preallocated
    :class:`~repro.sim.superstep.SuperstepArena`.  Admission writes arena
    rows in place and removal compacts in place, so the hot per-quantum path
    is pure array arithmetic over views of the arena's live prefix; only the
    sorted-id allocation-order cache is rebuilt (lazily) when membership
    changes.
    """

    __slots__ = (
        "slots",
        "jids",
        "_arena",
        "_sorted_jids",
        "_id_order",
        "_dirty",
        "_strict",
        "_policy_counts",
    )

    def __init__(self, *, strict: bool = False):
        self.slots: list[_Slot] = []
        self.jids: list[int] = []
        """Job ids aligned to ``slots`` (kept as a plain list for cheap
        per-quantum allocation-dict construction and gathering)."""
        self._arena = SuperstepArena()
        self._sorted_jids = _EMPTY_I64.copy()
        self._id_order = _EMPTY_I64.copy()
        self._dirty = False
        self._strict = bool(strict)
        self._policy_counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.slots)

    # -- arena views ----------------------------------------------------
    # Each property exposes the live prefix of one arena column.  Getters
    # return a view (writes through element/slice assignment mutate the
    # arena); setters copy values in place, so rebinding statements in the
    # quantum path (``self._done = np.where(...)``) keep working unchanged.

    @property
    def request(self) -> np.ndarray:
        """Real-valued controller requests ``d(q)``, aligned to ``slots``.
        The simulation loop reads it to build records and writes the
        feedback recurrences' results back into it (in place)."""
        return self._arena.request[: self._arena.n]

    @request.setter
    def request(self, values: np.ndarray) -> None:
        self._arena.request[: self._arena.n] = values

    @property
    def next_q(self) -> np.ndarray:
        """Per-slot index of the *next* quantum record (starts at 1)."""
        return self._arena.next_q[: self._arena.n]

    @property
    def _cur(self) -> np.ndarray:
        return self._arena.cur[: self._arena.n]

    @_cur.setter
    def _cur(self, values: np.ndarray) -> None:
        self._arena.cur[: self._arena.n] = values

    @property
    def _done(self) -> np.ndarray:
        return self._arena.done[: self._arena.n]

    @_done.setter
    def _done(self, values: np.ndarray) -> None:
        self._arena.done[: self._arena.n] = values

    @property
    def _rem(self) -> np.ndarray:
        return self._arena.rem[: self._arena.n]

    @_rem.setter
    def _rem(self, values: np.ndarray) -> None:
        self._arena.rem[: self._arena.n] = values

    @property
    def _prev_allot(self) -> np.ndarray:
        return self._arena.prev_allot[: self._arena.n]

    @_prev_allot.setter
    def _prev_allot(self, values: np.ndarray) -> None:
        self._arena.prev_allot[: self._arena.n] = values

    @property
    def _seg_w(self) -> np.ndarray:
        return self._arena.seg_w[: self._arena.seg_used]

    @property
    def _seg_total(self) -> np.ndarray:
        return self._arena.seg_total[: self._arena.seg_used]

    @property
    def _seg_off(self) -> np.ndarray:
        return self._arena.seg_off[: self._arena.n]

    @property
    def uniform_policy(self) -> FeedbackPolicy | None:
        """The single feedback-policy instance shared by every slot, or
        ``None`` when slots disagree.  Experiment job sets share one policy
        object across jobs, so the simulation loop's feedback step can
        usually issue one whole-array batch call instead of grouping."""
        if len(self._policy_counts) == 1:
            return self.slots[0].policy
        return None

    # ------------------------------------------------------------------

    def admit(
        self,
        *,
        jid: int,
        seq: int,
        spec: JobSpec,
        trace: JobTrace,
        profile: tuple[tuple[int, int], ...],
        request: float,
    ) -> None:
        """Add one batchable job at a quantum boundary."""
        seg_w = np.asarray([w for w, _ in profile], dtype=np.int64)
        seg_k = np.asarray([k for _, k in profile], dtype=np.int64)
        seg_total = seg_w * seg_k
        self.slots.append(
            _Slot(jid=jid, seq=seq, spec=spec, policy=spec.feedback, trace=trace)
        )
        self.jids.append(jid)
        pid = id(spec.feedback)
        self._policy_counts[pid] = self._policy_counts.get(pid, 0) + 1
        self._arena.admit(request=float(request), seg_w=seg_w, seg_total=seg_total)
        self._dirty = True

    def remove(self, positions: list[int]) -> None:
        """Drop finished slots (their traces were already handed out)."""
        for pos in positions:
            pid = id(self.slots[pos].policy)
            count = self._policy_counts[pid] - 1
            if count:
                self._policy_counts[pid] = count
            else:
                del self._policy_counts[pid]
        keep = np.ones(len(self.slots), dtype=bool)
        keep[positions] = False
        self.slots = [s for s, k in zip(self.slots, keep) if k]
        self.jids = [j for j, k in zip(self.jids, keep) if k]
        self._arena.remove(keep)
        self._dirty = True

    def export_slots(self, positions: list[int]) -> list[SlotState]:
        """Detach the given slots (for migration to another group kernel),
        removing them from this kernel; arrays are copied, so the states
        stay valid across the arena compaction."""
        arena = self._arena
        states: list[SlotState] = []
        for pos in positions:
            slot = self.slots[pos]
            off = int(arena.seg_off[pos])
            ln = int(arena.seg_len[pos])
            states.append(
                SlotState(
                    jid=slot.jid,
                    seq=slot.seq,
                    spec=slot.spec,
                    trace=slot.trace,
                    request=float(arena.request[pos]),
                    cur=int(arena.cur[pos]),
                    done=int(arena.done[pos]),
                    rem=int(arena.rem[pos]),
                    prev_allot=int(arena.prev_allot[pos]),
                    next_q=int(arena.next_q[pos]),
                    seg_w=arena.seg_w[off : off + ln].copy(),
                    seg_total=arena.seg_total[off : off + ln].copy(),
                )
            )
        self.remove(positions)
        return states

    def import_slot(self, state: SlotState) -> None:
        """Admit a migrated slot with its mid-run state intact (the inverse
        of :meth:`export_slots`)."""
        self.slots.append(
            _Slot(
                jid=state.jid,
                seq=state.seq,
                spec=state.spec,
                policy=state.spec.feedback,
                trace=state.trace,
            )
        )
        self.jids.append(state.jid)
        pid = id(state.spec.feedback)
        self._policy_counts[pid] = self._policy_counts.get(pid, 0) + 1
        arena = self._arena
        arena.admit(
            request=state.request, seg_w=state.seg_w, seg_total=state.seg_total
        )
        row = arena.n - 1
        arena.cur[row] = state.cur
        arena.done[row] = state.done
        arena.rem[row] = state.rem
        arena.prev_allot[row] = state.prev_allot
        arena.next_q[row] = state.next_q
        self._dirty = True

    def _repack(self) -> None:
        """Rebuild the sorted-id allocation-order cache (segment tables no
        longer repack — the arena maintains them incrementally)."""
        if not self._dirty:
            return
        if self.slots:
            jids = np.asarray(self.jids, dtype=np.int64)
            self._id_order = np.argsort(jids, kind="stable")  # jids are unique
            self._sorted_jids = jids[self._id_order]
        else:
            self._sorted_jids = _EMPTY_I64.copy()
            self._id_order = _EMPTY_I64.copy()
        self._dirty = False

    def allocation_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_jids, order)`` for the array-native allocation path:
        ``sorted_jids`` are the slots' job ids in increasing order and
        ``order`` the slot positions producing it (``jids[order[i]] ==
        sorted_jids[i]``).  Cached across quanta, rebuilt with the packed
        tables when the slot set changes."""
        self._repack()
        return self._sorted_jids, self._id_order

    # ------------------------------------------------------------------

    def integer_requests(self) -> np.ndarray:
        """Vectorized :func:`repro.core.types.integer_request` over all slots
        (same validation, same ceiling-with-tolerance arithmetic)."""
        d = self.request
        ok = d >= 0  # NaN fails the comparison, so one mask catches both
        if not ok.all():
            offender = float(d[int(np.flatnonzero(~ok)[0])])
            raise ValueError(f"invalid processor request {offender!r}")
        return np.maximum(1, np.ceil(d - 1e-9).astype(np.int64))

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
        self._repack()
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
        arena = self._arena
        arena.next_q[: arena.n] += 1

    def superstep_plan(self, alloc: np.ndarray, length: int) -> SuperstepPlan | None:
        """Closed-form count of the identical quanta every slot can
        fast-forward under the (fixed) allotment ``alloc``, or ``None`` when
        some slot reaches an event — a chunk boundary, segment transition,
        or completion — within the very next quantum.

        See :func:`repro.sim.superstep.pure_quantum_counts` for the per-slot
        regime arithmetic; the plan's ``delta``/``span`` are exactly the
        ``work``/``span`` each repeated record will carry.
        """
        arena = self._arena
        n = arena.n
        if not n:
            return None
        g = arena.seg_off[:n] + arena.cur[:n]
        w = arena.seg_w[g]
        total = arena.seg_total[g]
        done = arena.done[:n]
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
        ``prev_allot`` (already equal to ``alloc``) are untouched — exactly
        the state ``k`` calls of :meth:`execute_quantum` would leave.
        """
        arena = self._arena
        n = arena.n
        moved = k * plan.delta
        arena.done[:n] += moved
        arena.rem[:n] -= moved
        arena.next_q[:n] += k
        if self._strict:
            _strict_check(
                plan.delta, plan.span, np.full(n, length, dtype=np.int64), alloc
            )
