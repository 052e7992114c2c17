"""Level-major structural analysis: when can a dag execute without a heap?

The batched execution kernel (:mod:`repro.engine.batched`) replaces the
reference engine's per-task heap with per-level *counts*.  That is sound
exactly when the dag's level structure makes breadth-first execution
**counts-determined**: at every step, the set of ready tasks is a function of
how many tasks each level has completed — never of *which* ones — and every
level drains in ascending task-id order (the reference heap's tie-break).

Two level shapes compose to give that property:

- **barrier level** — every task on level ``l`` depends on *all* of level
  ``l-1`` (plus, optionally, tasks on shallower levels, which complete
  earlier).  The level becomes ready all at once, exactly when level ``l-1``
  drains.
- **chain level** — level ``l`` has the same width as level ``l-1`` and the
  task of rank ``j`` (ascending id within the level) has exactly one
  predecessor on level ``l-1``: the task of rank ``j``.  Because level
  ``l-1`` drains as a rank prefix, level ``l``'s ready set is always the rank
  prefix of the same length, so it too drains as a rank prefix.
- **permuted-chain level** — like a chain level (same width, exactly one
  predecessor on level ``l-1`` per task) except the parent map is an
  arbitrary *bijection* between the two levels instead of the identity on
  ranks.

Why permuted parents preserve counts-determinism
------------------------------------------------
Let level ``l`` have width ``w`` and let ``pi`` be the bijection mapping each
level-``l`` task to its unique level-``l-1`` predecessor.  Suppose ``c`` of
level ``l-1``'s tasks have completed (any ``c`` of them).  A level-``l`` task
is enabled exactly when ``pi(t)`` has completed (its shallower predecessors,
if any, finished even earlier: breadth-first keeps at most one level partial,
so when level ``l-1`` started draining every level ``< l-1`` was already
done).  Because ``pi`` is injective, each completed predecessor enables
exactly one level-``l`` task, so the *number* of enabled tasks is exactly
``c`` — independent of *which* ``c`` tasks completed.  By induction over
steps, the per-level completion **counts** of the whole execution are
therefore identical to those of the rank-aligned chain with the same widths:
the ready count at every step, and hence the per-step completions, work,
span, and steps of every quantum, coincide bit for bit.  What is *not*
preserved is the identity of the drained tasks: level ``l`` no longer drains
as an ascending-id prefix (the enabled set is ``pi``-scattered), so per-task
schedule *recording* still requires the stricter rank-aligned shape — see
:attr:`LevelStructure.rank_aligned` and
:class:`repro.engine.batched.BatchedDagExecutor`.

A dag whose every level (after the sources) is a barrier, chain, or
permuted-chain level therefore decomposes into *segments* — maximal
chain-linked runs of constant width, separated by barriers — and behaves
exactly like a :class:`~repro.engine.phased.PhasedJob` whose phases are the
segments (:meth:`LevelStructure.segment_phases`), and
:class:`~repro.engine.batched.BatchedDagExecutor` runs it as one.  All of the paper's workloads (fork-join jobs,
constant-parallelism jobs, the Figure 2 fragment, chains, diamonds) are of
this shape; random layered and series-parallel dags generally are not and
keep the reference engine.

The analysis runs once per dag in O(V + E) and is cached on the
:class:`~repro.dag.graph.Dag` (see :attr:`Dag.structure`), so sweeps that
re-execute the same dag under many policies pay for it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # circular with graph.py at runtime
    from .graph import Dag

__all__ = ["LevelStructure", "analyze_level_structure"]

#: Level kinds (``LevelStructure.kinds`` values).
_KIND_SOURCE = 0
_KIND_CHAIN = 1
_KIND_BARRIER = 2
_KIND_PERMUTED = 3


@dataclass(frozen=True, slots=True)
class LevelStructure:
    """Cached per-level decomposition of a dag.

    Levels are 0-indexed here (level ``lvl`` holds the tasks whose 1-based
    paper level is ``lvl + 1``).  The arrays are shared, not copied — callers
    must not mutate them.
    """

    num_levels: int
    widths: np.ndarray
    """Tasks per level, ``int64[num_levels]`` (same numbers as
    :attr:`Dag.level_sizes`)."""

    level_tasks: tuple[np.ndarray, ...]
    """Ascending task ids of each level — the drain order of the reference
    heap's ``(level, id)`` tie-break."""

    kinds: np.ndarray
    """Per-level kind: 0 = source level, 1 = chain, 2 = barrier,
    3 = permuted chain.  Only meaningful when :attr:`level_major` is true."""

    seg_of: np.ndarray
    """Segment index of each level (``int64[num_levels]``)."""

    seg_start: np.ndarray
    """First level index of each segment."""

    seg_end: np.ndarray
    """Last level index of each segment."""

    cum_tasks: np.ndarray
    """``cum_tasks[lvl]`` = tasks on levels ``< lvl`` (length
    ``num_levels + 1``); global completion position in level-major order."""

    level_major: bool
    """Whether the batched dag executor may execute this dag."""

    rank_aligned: bool
    """Whether every chain-like level is the *identity* on ranks (no
    permuted-chain levels).  Counts-determined execution needs only
    :attr:`level_major`; per-step schedule *recording* additionally needs
    rank alignment, because a permuted level drains in a data-dependent
    order (see the module docstring)."""

    reject_reason: str | None
    """Why the dag is not level-major (``None`` when it is)."""

    @property
    def num_segments(self) -> int:
        return len(self.seg_start)

    def segment_phases(self) -> list[tuple[int, int]]:
        """The ``(width, levels)`` phase sequence the dag is equivalent to
        (only meaningful when :attr:`level_major` is true)."""
        return [
            (int(self.widths[int(s)]), int(e - s + 1))
            for s, e in zip(self.seg_start, self.seg_end)
        ]


def analyze_level_structure(dag: "Dag") -> LevelStructure:
    """Classify every level of ``dag`` and decompose it into segments.

    Returns a :class:`LevelStructure` with ``level_major=True`` when every
    level is a source, chain, or barrier level (see module docstring), in
    which case the batched dag executor reproduces the reference engine
    (work and steps exactly, span to 1e-12).
    Prefer the cached :attr:`Dag.structure` over calling this directly.
    """
    levels0 = dag.levels - 1  # 0-indexed levels
    num_levels = dag.num_levels
    widths = dag.level_sizes.astype(np.int64)
    cum_tasks = np.concatenate([[0], np.cumsum(widths)])

    # Ascending task ids per level (argsort is stable; a final sort within
    # each level slice makes the ascending order explicit).
    order = np.argsort(levels0, kind="stable")
    level_tasks = tuple(
        np.sort(order[cum_tasks[lvl] : cum_tasks[lvl + 1]])
        for lvl in range(num_levels)
    )

    def build(
        kinds: np.ndarray,
        seg_of: np.ndarray,
        seg_start: np.ndarray,
        seg_end: np.ndarray,
        reason: str | None,
    ) -> LevelStructure:
        return LevelStructure(
            num_levels=num_levels,
            widths=widths,
            level_tasks=level_tasks,
            kinds=kinds,
            seg_of=seg_of,
            seg_start=seg_start,
            seg_end=seg_end,
            cum_tasks=cum_tasks,
            level_major=reason is None,
            rank_aligned=reason is None and not bool(np.any(kinds == _KIND_PERMUTED)),
            reject_reason=reason,
        )

    def reject(reason: str) -> LevelStructure:
        empty = np.zeros(0, dtype=np.int64)
        zeros = np.zeros(num_levels, dtype=np.int64)
        return build(zeros, zeros.copy(), empty, empty, reason)

    # rank_of[t] = position of task t within its level's ascending-id list.
    rank_of = np.empty(dag.num_tasks, dtype=np.int64)
    for ids in level_tasks:
        rank_of[ids] = np.arange(len(ids), dtype=np.int64)

    kinds = np.zeros(num_levels, dtype=np.int64)
    kinds[0] = _KIND_SOURCE
    for lvl in range(1, num_levels):
        w_prev = int(widths[lvl - 1])
        permuted_ok = int(widths[lvl]) == w_prev
        chain_ok = permuted_ok
        barrier_ok = True
        parents_seen: set[int] = set()
        for t in level_tasks[lvl]:
            t_int = int(t)
            preds_prev = [
                p for p in dag.predecessors(t_int) if int(levels0[p]) == lvl - 1
            ]
            if permuted_ok:
                if len(preds_prev) != 1:
                    permuted_ok = chain_ok = False
                else:
                    parent = int(preds_prev[0])
                    if parent in parents_seen:
                        # Two tasks share a parent: the map is not injective,
                        # so completing one prev-level task can enable 0 or 2
                        # tasks — counts alone no longer determine readiness.
                        permuted_ok = chain_ok = False
                    else:
                        parents_seen.add(parent)
                        if chain_ok and int(rank_of[parent]) != int(rank_of[t]):
                            chain_ok = False
            if barrier_ok and len(set(preds_prev)) != w_prev:
                barrier_ok = False
            if not permuted_ok and not barrier_ok:
                return reject(
                    f"level {lvl + 1} is neither a (possibly permuted) chain "
                    f"nor a barrier level (task {t_int} breaks every shape)"
                )
        # Prefer chain > permuted > barrier: chain-like classifications keep
        # a (w, k) run in one segment (a width-1 chain level is also
        # trivially a barrier), and a rank-aligned level is the stronger
        # chain-like fact (it additionally permits schedule recording).
        if chain_ok:
            kinds[lvl] = _KIND_CHAIN
        elif permuted_ok:
            kinds[lvl] = _KIND_PERMUTED
        else:
            kinds[lvl] = _KIND_BARRIER

    # Segments: a barrier level starts a new segment; chain-like levels
    # (aligned or permuted) extend it.
    seg_of = np.zeros(num_levels, dtype=np.int64)
    starts = [0]
    for lvl in range(1, num_levels):
        if kinds[lvl] == _KIND_BARRIER:
            starts.append(lvl)
        seg_of[lvl] = len(starts) - 1
    seg_start = np.asarray(starts, dtype=np.int64)
    seg_end = np.concatenate([seg_start[1:] - 1, [num_levels - 1]]).astype(np.int64)

    return build(kinds, seg_of, seg_start, seg_end, None)
