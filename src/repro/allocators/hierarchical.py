"""Hierarchical allocation — Cao, Sun, Qian & Wu (ICPP 2014).

DEQ is centralized: one waterfall over every active job per quantum.  The
hierarchical fix partitions the ``P`` processors into ``G`` fixed-budget
groups, runs the ordinary equi-partitioning waterfall *per group* over the
jobs assigned to it, and periodically rebalances by migrating whole jobs
from overloaded groups to underloaded ones.  Group-local allocation is what
lets the machine-wide quantum split into per-group windows: each group's
waterfall reads and writes only group-local state, so the windowed loop
(:mod:`repro.sim.sharded`) can advance each group through its own window
between rebalancing barriers and still reproduce this allocator's decisions
bit-for-bit.

Everything here is deterministic by construction: group membership is a
pure function of the admission order and the rebalancing history, every
scan runs in sorted job-id order, and ties break toward the lowest group
index / lowest job id.  The same simulation therefore produces identical
traces whether it runs in one machine-wide window or in per-group windows.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from .base import Allocator
from .equipartition import DynamicEquiPartitioning

__all__ = ["HierarchicalAllocator"]


class HierarchicalAllocator(Allocator):
    """Fixed-budget processor groups with deterministic job migration.

    Parameters
    ----------
    group_size:
        Target processors per group; the machine's ``total`` is split into
        ``G = ceil(total / group_size)`` groups whose budgets differ by at
        most one (the first ``total % G`` groups take the extra processor).
    rebalance_interval:
        Rebalancing runs every this-many quanta (before the allocation of
        the boundary quantum).  Between boundaries membership is sticky,
        which is exactly what lets the windowed loop run a whole window
        of quanta per group without coordinating.
    imbalance_threshold:
        Jobs migrate while the desire/budget load ratio of the most loaded
        group exceeds the least loaded group's by more than this.

    The allocator is conservative and gives every job at least one
    processor (each group's inner DEQ does, and membership never exceeds a
    group's budget), but it is neither fair nor non-reserving machine-wide:
    a group may idle processors while another group's jobs want more —
    that is the price of decentralization, paid until the next rebalance.
    """

    fair = False
    non_reserving = False

    def __init__(
        self,
        group_size: int,
        *,
        rebalance_interval: int = 50,
        imbalance_threshold: float = 0.25,
    ) -> None:
        if group_size < 1:
            raise ValueError("group size must be at least one processor")
        if rebalance_interval < 1:
            raise ValueError("rebalance interval must be at least one quantum")
        if imbalance_threshold < 0.0:
            raise ValueError("imbalance threshold must be non-negative")
        self.group_size = int(group_size)
        self.rebalance_interval = int(rebalance_interval)
        self.imbalance_threshold = float(imbalance_threshold)
        self._total: int | None = None
        self._budgets: list[int] = []
        self._groups: list[DynamicEquiPartitioning] = []
        self._members: dict[int, int] = {}  # job id -> group index (sticky)
        self._quantum = 0  # allocation calls served so far

    # ------------------------------------------------------------------
    # group structure

    def _bind(self, total: int) -> None:
        """Derive the group partition from the machine size, once."""
        if total < 1:
            raise ValueError("need at least one processor")
        if self._total is None:
            count = -(-total // self.group_size)
            base, extra = divmod(total, count)
            self._budgets = [base + (1 if g < extra else 0) for g in range(count)]
            self._groups = [DynamicEquiPartitioning() for _ in range(count)]
            self._total = total
        elif total != self._total:
            raise ValueError(
                f"hierarchical allocator bound to P={self._total}, got P={total}"
            )

    @property
    def group_count(self) -> int:
        """Number of groups (0 before the first allocation call)."""
        return len(self._budgets)

    def group_budgets(self) -> list[int]:
        """Per-group processor budgets (copy)."""
        return list(self._budgets)

    def membership(self) -> dict[int, int]:
        """Current job -> group assignment (copy)."""
        return dict(self._members)

    def quanta_to_rebalance(self) -> int:
        """Quanta until the next rebalancing boundary (>= 1): the boundary
        quantum itself re-derives membership, so a fixed point certified now
        must not extend past it."""
        interval = self.rebalance_interval
        return interval - self._quantum % interval if self._quantum else interval

    # ------------------------------------------------------------------
    # membership maintenance (all deterministic, sorted-id order)

    def _sync_members(self, ids: np.ndarray) -> None:
        """Drop departed jobs; admit new ones to the least-loaded group
        (member count over budget, ties to the lowest index)."""
        present = set(int(j) for j in ids)
        for j in [j for j in self._members if j not in present]:
            del self._members[j]
        counts = [0] * len(self._budgets)
        for g in self._members.values():
            counts[g] += 1
        for j in ids:
            j = int(j)
            if j in self._members:
                continue
            best = -1
            best_load = float("inf")
            for g, budget in enumerate(self._budgets):
                if counts[g] >= budget:
                    continue
                load = counts[g] / budget
                if load < best_load:
                    best, best_load = g, load
            if best < 0:  # unreachable while |J| <= P holds
                raise ValueError("no group has capacity for a new job")
            self._members[j] = best
            counts[best] += 1

    def _rebalance(self, ids: np.ndarray, requests: np.ndarray) -> None:
        """Migrate whole jobs from the most- to the least-loaded group while
        the desire/budget imbalance exceeds the threshold.

        One migration per round: the smallest-request job (ties to the
        lowest id) leaves the group with the highest load ratio (ties to the
        lowest index) for the one with the lowest, provided the destination
        has spare capacity and the move strictly lowers the pair's maximum
        load.  The loop is deterministic and self-quenching: re-running it
        immediately with unchanged requests breaks on the first round.
        """
        budgets = self._budgets
        if len(budgets) < 2 or not ids.size:
            return
        desire = [0] * len(budgets)
        count = [0] * len(budgets)
        by_group: list[list[int]] = [[] for _ in budgets]
        for pos, j in enumerate(ids):
            g = self._members[int(j)]
            desire[g] += int(requests[pos])
            count[g] += 1
            by_group[g].append(pos)
        for _ in range(ids.size):
            hi = max(range(len(budgets)), key=lambda g: (desire[g] / budgets[g], -g))
            lo = min(range(len(budgets)), key=lambda g: (desire[g] / budgets[g], g))
            if desire[hi] / budgets[hi] - desire[lo] / budgets[lo] <= self.imbalance_threshold:
                break
            if count[lo] >= budgets[lo] or not by_group[hi]:
                break
            pos = min(by_group[hi], key=lambda p: (int(requests[p]), int(ids[p])))
            req = int(requests[pos])
            ceiling = max(desire[hi] / budgets[hi], desire[lo] / budgets[lo])
            moved_hi = (desire[hi] - req) / budgets[hi]
            moved_lo = (desire[lo] + req) / budgets[lo]
            if max(moved_hi, moved_lo) >= ceiling:
                break
            self._members[int(ids[pos])] = lo
            by_group[hi].remove(pos)
            by_group[lo].append(pos)
            desire[hi] -= req
            desire[lo] += req
            count[hi] -= 1
            count[lo] += 1

    def _prepare(self, ids: np.ndarray, requests: np.ndarray, total: int) -> None:
        """Shared per-call front half: validation, binding, membership."""
        self._bind(total)
        bad = np.flatnonzero(requests < 1)
        if bad.size:
            raise ValueError(
                f"job {int(ids[bad[0]])} must request at least one processor"
            )
        if ids.size > total:
            raise ValueError(
                f"hierarchical allocation requires |J| <= P "
                f"(got {ids.size} jobs, {total} processors)"
            )
        self._sync_members(ids)
        if self._quantum and self._quantum % self.rebalance_interval == 0:
            self._rebalance(ids, requests)

    # ------------------------------------------------------------------
    # per-group window protocol: the windowed loop replays exactly the
    # per-call front half (begin_window) and counter bookkeeping
    # (advance_window) the machine-wide allocate_batch calls would perform,
    # while the group waterfalls themselves run inside the group windows.

    def begin_window(
        self, ids: np.ndarray, requests: np.ndarray, total: int
    ) -> dict[int, int]:
        """Run the front half of the next allocation call — binding,
        validation, membership sync, and (at boundaries) rebalancing — and
        return the job -> group membership frozen for the window."""
        self._prepare(ids, requests, total)
        return {int(j): self._members[int(j)] for j in ids}

    def advance_window(self, quanta: int) -> None:
        """Account ``quanta`` machine quanta executed inside a per-group
        window (machine-wide per-quantum calls advance the same
        counter, so rebalancing boundaries land on identical quanta)."""
        self._quantum += int(quanta)

    def group_allocator(self, group: int) -> DynamicEquiPartitioning:
        """The group's inner allocator (its window allocates through it in
        place)."""
        return self._groups[group]

    # ------------------------------------------------------------------
    # allocation

    def _group_positions(
        self, ids: np.ndarray
    ) -> Iterator[tuple[int, DynamicEquiPartitioning, np.ndarray]]:
        """Each non-empty group's index, inner allocator and member positions
        in ``ids`` (ascending, so sorted-id order is preserved)."""
        groups = np.fromiter(
            (self._members[int(j)] for j in ids), dtype=np.int64, count=ids.size
        )
        for g, inner in enumerate(self._groups):
            positions = np.flatnonzero(groups == g)
            if positions.size:
                yield g, inner, positions

    def allocate_batch(
        self, ids: np.ndarray, requests: np.ndarray, total: int
    ) -> np.ndarray:
        """Array-native hierarchical allocation: gather each group's members
        (sorted-id order is preserved by the stable mask), run the group's
        inner DEQ waterfall against its fixed budget, scatter the grants."""
        self._prepare(ids, requests, total)
        out = np.zeros(ids.size, dtype=np.int64)
        for g, inner, positions in self._group_positions(ids):
            out[positions] = inner.allocate_batch(
                ids[positions], requests[positions], self._budgets[g]
            )
        self._quantum += 1
        return out

    def allocate(self, requests: Mapping[int, int], total: int) -> dict[int, int]:
        ids = np.array(sorted(requests), dtype=np.int64)
        reqs = np.array([requests[int(j)] for j in ids], dtype=np.int64)
        grants = self.allocate_batch(ids, reqs, total)
        return {int(j): int(a) for j, a in zip(ids, grants)}

    # ------------------------------------------------------------------
    # superstep certification: probe every group, commit the minimum

    def fixed_point_probe(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        limit: int,
    ) -> int:
        """A hierarchical allocation repeats while every group's inner
        allocation repeats — but never across a rebalancing boundary: the
        boundary quantum re-derives membership from the live desires (even
        held requests can migrate, e.g. the first rebalance after a burst
        of count-balanced but desire-imbalanced admissions), so the span
        truncates just before it.  The windowed loop's windows are
        capped by :meth:`quanta_to_rebalance` for the same reason."""
        if limit <= 0 or self._total is None:
            return 0
        offset = self._quantum % self.rebalance_interval
        if offset == 0:
            # The very next allocation call runs the boundary rebalance.
            return 0
        span = min(limit, self.rebalance_interval - offset)
        for g, inner, positions in self._group_positions(ids):
            span = min(
                span,
                inner.fixed_point_probe(
                    ids[positions],
                    requests[positions],
                    grants[positions],
                    self._budgets[g],
                    span,
                ),
            )
            if span <= 0:
                return 0
        return span

    def fixed_point_advance(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        span: int,
    ) -> None:
        for g, inner, positions in self._group_positions(ids):
            inner.fixed_point_advance(
                ids[positions],
                requests[positions],
                grants[positions],
                self._budgets[g],
                span,
            )
        self._quantum += span

    def __repr__(self) -> str:
        return (
            f"HierarchicalAllocator(group_size={self.group_size!r}, "
            f"rebalance_interval={self.rebalance_interval!r}, "
            f"imbalance_threshold={self.imbalance_threshold!r})"
        )
