"""Constructors for common dag shapes.

The paper's evaluation uses data-parallel *fork-join* jobs that alternate
serial and parallel phases (Section 7.1); the analytical examples use constant
parallelism dags (Figures 1 and 4) and the level-measurement fragment of
Figure 2.  Random layered dags support property tests beyond the paper's
workload.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import Dag

__all__ = [
    "chain",
    "wide_level",
    "diamond",
    "fork_join",
    "fork_join_from_phases",
    "figure2_fragment",
    "random_layered",
]


def chain(length: int) -> Dag:
    """A serial chain of ``length`` unit tasks (parallelism 1)."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    return Dag(length, [(i, i + 1) for i in range(length - 1)])


def wide_level(width: int) -> Dag:
    """``width`` independent tasks: one level, parallelism ``width``."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return Dag(width, [])


def diamond(width: int) -> Dag:
    """source -> ``width`` parallel tasks -> sink (the minimal fork-join)."""
    if width < 1:
        raise ValueError("width must be >= 1")
    edges = []
    for i in range(width):
        edges.append((0, 1 + i))
        edges.append((1 + i, 1 + width))
    return Dag(width + 2, edges)


def fork_join_from_phases(phases: Sequence[tuple[int, int]]) -> Dag:
    """Build an explicit fork-join dag from ``(width, levels)`` phases.

    Each phase is ``width`` independent chains of ``levels`` unit tasks.
    Adjacent phases are joined with full barriers: every chain tail of phase
    ``i`` precedes every chain head of phase ``i+1``.  A serial phase is
    simply ``(1, levels)``.

    This is the explicit-dag twin of :class:`repro.engine.phased.PhasedJob`;
    the two are cross-validated in the test suite.
    """
    if not phases:
        raise ValueError("at least one phase required")
    for w, k in phases:
        if w < 1 or k < 1:
            raise ValueError(f"phase ({w}, {k}) must have width>=1 and levels>=1")

    # Task (c, d) of a phase is base + c*k + d; the edge list is emitted
    # phase by phase as numpy blocks — barrier edges (prev tail major, head
    # minor), then chain edges (chain major, depth minor) — in exactly the
    # order the scalar loops would append them, so the resulting Dag (and
    # its adjacency orders) is identical.
    num_tasks = sum(w * k for w, k in phases)
    blocks: list[np.ndarray] = []
    base = 0
    prev_tails: np.ndarray | None = None
    for w, k in phases:
        ids = base + np.arange(w * k, dtype=np.int64).reshape(w, k)
        if prev_tails is not None:  # barrier from previous phase
            blocks.append(
                np.stack(
                    [np.repeat(prev_tails, w), np.tile(ids[:, 0], prev_tails.size)],
                    axis=1,
                )
            )
        if k > 1:  # chains within the phase
            blocks.append(
                np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
            )
        prev_tails = ids[:, -1]
        base += w * k
    edges = (
        np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    )
    return Dag(num_tasks, edges)


def fork_join(
    serial_length: int,
    parallel_width: int,
    parallel_length: int,
    num_iterations: int,
    *,
    leading_serial: bool = True,
) -> Dag:
    """Classic data-parallel loop: ``num_iterations`` repetitions of a serial
    phase followed by a parallel phase.

    Matches the paper's fork-join workload (Section 7.1) with uniform phase
    dimensions; :class:`repro.workloads.forkjoin.ForkJoinGenerator`
    randomizes the dimensions per phase.
    """
    if num_iterations < 1:
        raise ValueError("need at least one iteration")
    phases: list[tuple[int, int]] = []
    for _ in range(num_iterations):
        if leading_serial:
            phases.append((1, serial_length))
            phases.append((parallel_width, parallel_length))
        else:
            phases.append((parallel_width, parallel_length))
            phases.append((1, serial_length))
    return fork_join_from_phases(phases)


def figure2_fragment() -> Dag:
    """The three-level, 5-wide fragment used in the paper's Figure 2 example.

    Levels have 5 tasks each; the figure's quantum completes 4 tasks on the
    first level (fraction 0.8), all 5 on the second (1.0), and 3 on the third
    (0.6), giving ``T1(q) = 12`` and ``Tinf(q) = 2.4``.  We realize it as 5
    independent chains of length 3 (chain structure keeps every frontier task
    ready, as in the figure).
    """
    return fork_join_from_phases([(5, 3)])


def random_layered(
    rng: np.random.Generator,
    num_levels: int,
    *,
    min_width: int = 1,
    max_width: int = 8,
    edge_density: float = 0.5,
) -> Dag:
    """A random layered dag: each level has a random width, and every task has
    at least one parent on the previous level (so levels are exact).

    Useful for property-testing the execution engines on shapes well beyond
    fork-join structure.
    """
    if num_levels < 1:
        raise ValueError("need at least one level")
    if not (1 <= min_width <= max_width):
        raise ValueError("need 1 <= min_width <= max_width")
    widths = rng.integers(min_width, max_width + 1, size=num_levels)
    starts = np.concatenate([[0], np.cumsum(widths)])
    edges: list[tuple[int, int]] = []
    for lvl in range(1, num_levels):
        prev = range(starts[lvl - 1], starts[lvl])
        cur = range(starts[lvl], starts[lvl + 1])
        for v in cur:
            # guaranteed parent keeps the task exactly on this level
            anchor = int(rng.integers(starts[lvl - 1], starts[lvl]))
            edges.append((anchor, v))
            for u in prev:
                if u != anchor and rng.random() < edge_density:
                    edges.append((u, v))
    return Dag(int(starts[-1]), edges)
