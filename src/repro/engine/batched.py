"""Batched level-major execution of explicit dags — the closed form on dags.

A dag whose level structure is *counts-determined* (every level a chain,
permuted-chain, or barrier level — see :mod:`repro.dag.structure`) behaves
under B-Greedy's breadth-first discipline exactly like a
:class:`~repro.engine.phased.PhasedJob` whose phases are the dag's segments
(maximal chain-linked runs of constant width between barriers).  That covers
all of the paper's workloads, so :class:`BatchedDagExecutor` *is* a
:class:`~repro.engine.phased.PhasedExecutor` over
:meth:`~repro.dag.structure.LevelStructure.segment_phases`: one quantum costs
O(segments touched) integer arithmetic instead of the reference engine's
O(tasks) heap pops.

Within a segment of ``k`` levels of width ``w``, breadth-first keeps the
completed region level-major with at most one partially-complete level, so
the phased state ``(segment p, tasks done d)`` pins the dag's state down:
the frontier level is ``seg_start[p] + d // w`` with ``d % w`` of its tasks
done.  The ready count is ``w`` while the frontier is not the segment's last
level (remaining frontier tasks plus the next level's already-enabled
prefix) and the frontier's remaining tasks on the last level.

Work, steps, the finished flag, the per-level completion staircase and the
ready count equal :class:`~repro.engine.explicit.ExplicitExecutor`'s exactly.
Span agrees to 1e-12, not bit for bit: the closed form adds ``delta / w``
once per chunk, the reference engine ``n / w`` once per step, and the
rounding of the two sums can differ in the last place.

``record_schedule=True`` reconstructs the exact per-step task lists from the
level-rank arrays (levels drain as ascending-id prefixes) — identical to the
reference engine's recording and replayable through
:func:`repro.verify.auditor.audit_dag_schedule`.  Recording requires the
*rank-aligned* structure (no permuted-chain levels): a permuted level's
drain order depends on which parents completed first, which the counts model
does not track — work/span/steps stay exact on permuted structures, the
per-task identities do not.  ``strict=True`` re-validates every quantum with
the phased engine's check.
"""

from __future__ import annotations

import numpy as np

from ..dag.graph import Dag
from .base import QuantumExecution
from .phased import PhasedExecutor, PhasedJob

__all__ = ["BatchedDagExecutor", "UnsupportedDagStructure", "supports_batched"]


class UnsupportedDagStructure(ValueError):
    """The dag's level structure is not counts-determined (see
    :mod:`repro.dag.structure`); use the reference engine instead."""


def supports_batched(dag: Dag, discipline: str = "breadth-first") -> bool:
    """Whether :class:`BatchedDagExecutor` can execute ``dag`` under
    ``discipline`` — true only for breadth-first on level-major dags."""
    return discipline == "breadth-first" and dag.structure.level_major


class BatchedDagExecutor(PhasedExecutor):
    """Closed-form breadth-first execution state of a level-major dag.

    Raises :class:`UnsupportedDagStructure` when the dag's level structure
    does not permit counts-determined execution.
    """

    __slots__ = ("_dag", "schedule")

    def __init__(
        self,
        dag: Dag,
        *,
        strict: bool = False,
        record_schedule: bool = False,
    ):
        structure = dag.structure
        if not structure.level_major:
            raise UnsupportedDagStructure(
                f"dag is not level-major: {structure.reject_reason}"
            )
        if record_schedule and not structure.rank_aligned:
            raise UnsupportedDagStructure(
                "schedule recording requires rank-aligned levels: a "
                "permuted-chain level drains in a data-dependent order the "
                "counts model cannot reconstruct; use the reference engine"
            )
        super().__init__(PhasedJob(structure.segment_phases()), strict=strict)
        self._dag = dag
        self.schedule: list[tuple[int, list[int]]] | None = (
            [] if record_schedule else None
        )

    def execute_quantum(self, allotment: int, max_steps: int) -> QuantumExecution:
        if self.schedule is None:
            return super().execute_quantum(allotment, max_steps)
        # Recording: the same counts model advanced one step at a time,
        # emitting the exact task ids (each level drains as an ascending-id
        # prefix).
        self._check_quantum_args(allotment, max_steps)
        s = self._dag.structure
        a = allotment
        steps = 0
        work = 0
        span = 0.0
        while steps < max_steps and not self.finished:
            p = self._phase_idx
            f, x = self._frontier()
            w = int(s.widths[f])
            take_f = min(a, w - x)
            tasks = s.level_tasks[f][x : x + take_f].tolist()
            n = take_f
            if n < a and f < int(s.seg_end[p]):
                # Spill into the next level's enabled prefix (its first x
                # ranks are ready: their chain parents completed earlier).
                spill = min(a - n, x)
                tasks.extend(s.level_tasks[f + 1][:spill].tolist())
                n += spill
            self.schedule.append((a, tasks))
            steps += 1
            work += n
            span += n / w
            self._remaining -= n
            self._done_in_phase += n
            if self._done_in_phase == self._job.phases[p].work:
                self._phase_idx += 1
                self._done_in_phase = 0
        if self._strict:
            self._check_quantum(work, span, steps, a)
        return QuantumExecution(
            work=work, span=span, steps=steps, finished=self.finished
        )

    def _frontier(self) -> tuple[int, int]:
        """The level draining now (0-indexed) and its completed tasks."""
        s = self._dag.structure
        start = int(s.seg_start[self._phase_idx])
        level, done = divmod(self._done_in_phase, int(s.widths[start]))
        return start + level, done

    # ------------------------------------------------------------------

    @property
    def dag(self) -> Dag:
        return self._dag

    @property
    def discipline(self) -> str:
        return "breadth-first"

    def completed_by_level(self) -> np.ndarray:
        """Cumulative completed-task count per dag level (index 0 = level 1)
        — identical staircase to the reference engine's."""
        out = self._dag.structure.widths.copy()
        if not self.finished:
            f, done = self._frontier()
            out[f] = done
            out[f + 1 :] = 0
        return out

    @property
    def current_parallelism(self) -> float:
        """Exact ready-task count, matching the reference engine's heap size:
        ``w`` while the frontier is mid-segment (wavefront full), else the
        frontier level's remaining tasks."""
        if self.finished:
            return 0.0
        s = self._dag.structure
        f, done = self._frontier()
        w = int(s.widths[f])
        if f < int(s.seg_end[self._phase_idx]):
            return float(w)
        return float(w - done)
