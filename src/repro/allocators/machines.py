"""Disjoint machines — many independent DEQ machines behind one allocator.

Independent job sets that never share a processor can run as *machines* of
one simulation: machine ``m`` has a fixed budget of ``P_m`` processors and
owns the contiguous job-id range ``[O_m, O_m + P_m)`` with ``O_m`` the sum
of the earlier budgets, so DEQ's ``|J_m| <= P_m`` rule always leaves room
for every admissible job.  Jobs never migrate.  Each machine divides its
budget among its own jobs exactly as a lone
:class:`~repro.allocators.equipartition.DynamicEquiPartitioning` would, with
its own rotation counter.  Hierarchical scheduling (Cao, Sun et al.) treats
processor groups as independent schedulers the same way; here the groups
are also independent *job sets*, which is what lets the Figure 6 sweep run
a chunk of sets through one windowed loop and share its per-quantum call
overhead.

Sorted-id order visits each machine's jobs in the relative order a run of
that set alone would, so every machine's grants, rotation counter and
error messages are those of its own DEQ.  The two entry points split the
work differently on purpose:

- :meth:`DisjointMachines.allocate` (the serial reference loop) calls each
  machine's own ``DynamicEquiPartitioning.allocate`` over that machine's
  jobs, so the oracle shares no code with the array path;
- :meth:`DisjointMachines.allocate_batch` (the windowed loop) runs one
  vectorized *segmented* waterfall over every machine at once.

The allocator is fair and non-reserving per machine, not machine-wide: a
machine idles processors its own jobs decline even while another machine's
jobs want more.  :func:`repro.sim.multi.split_machines` cuts a run into one
result per machine, which the auditor can check under DEQ's contract.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .base import Allocator
from .equipartition import DynamicEquiPartitioning

__all__ = ["DisjointMachines"]


class DisjointMachines(Allocator):
    """Fixed-budget DEQ machines over disjoint, contiguous job-id ranges.

    Parameters
    ----------
    budgets:
        Processors per machine (each >= 1).  The allocator divides exactly
        ``sum(budgets)`` processors; machine ``m`` owns job ids
        ``machine_offset(m)`` through ``machine_offset(m) + budgets[m] - 1``.
    """

    fair = False
    non_reserving = False

    def __init__(self, budgets: Sequence[int]) -> None:
        if not budgets:
            raise ValueError("need at least one machine")
        for m, budget in enumerate(budgets):
            if isinstance(budget, bool) or int(budget) != budget or budget < 1:
                raise ValueError(
                    f"machine {m} needs a positive integer budget, got {budget!r}"
                )
        self._budgets = np.asarray(budgets, dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(self._budgets)))
        self._total = int(self._offsets[-1])
        self._rotation = np.zeros(self._budgets.size, dtype=np.int64)

    @property
    def budgets(self) -> tuple[int, ...]:
        """Processors per machine."""
        return tuple(int(b) for b in self._budgets)

    @property
    def total(self) -> int:
        """``sum(budgets)``: the only machine size this allocator divides."""
        return self._total

    def machine_offset(self, machine: int) -> int:
        """The first job id machine ``machine`` owns."""
        return int(self._offsets[machine])

    def rotations(self) -> list[int]:
        """Every machine's DEQ rotation counter, in machine order."""
        return self._rotation.tolist()

    def machine_of(self, ids: np.ndarray) -> np.ndarray:
        """The machine index owning each job id (any order); a ValueError
        names the first id outside every machine's range."""
        ids = np.asarray(ids, dtype=np.int64)
        bad = np.flatnonzero((ids < 0) | (ids >= self._total))
        if bad.size:
            raise ValueError(
                f"job {int(ids[bad[0]])} is outside every machine's id range "
                f"[0, {self._total})"
            )
        return np.searchsorted(self._offsets, ids, side="right") - 1

    def machine_sizes(self, ids: np.ndarray, total: int) -> np.ndarray:
        return self._budgets[self.machine_of(ids)]

    def _check_total(self, total: int) -> None:
        if total != self._total:
            raise ValueError(
                f"disjoint machines divide P={self._total} (the sum of their "
                f"budgets), got P={total}"
            )

    def _check_budgets(self, machines: np.ndarray, grants: np.ndarray) -> None:
        used = np.bincount(machines, weights=grants, minlength=self._budgets.size)
        over = np.flatnonzero(used > self._budgets)
        if over.size:
            m = int(over[0])
            raise AssertionError(
                f"machine {m} allocated {int(used[m])} processors, more than "
                f"its {int(self._budgets[m])}"
            )

    # ------------------------------------------------------------------
    # allocation

    def _runs(self, machines: np.ndarray) -> list[tuple[int, int, int]]:
        """``(machine, lo, hi)`` for every machine with jobs: positions
        ``lo:hi`` of the sorted ids are that machine's."""
        bounds = np.searchsorted(
            machines, np.arange(self._budgets.size + 1, dtype=np.int64)
        ).tolist()
        return [
            (m, lo, hi) for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo
        ]

    def allocate(self, requests: Mapping[int, int], total: int) -> dict[int, int]:
        """Each machine's own DEQ ``allocate`` over its jobs, in machine
        order (so the first machine with a bad request raises its DEQ's
        error; a machine without jobs is a DEQ call that changes nothing)."""
        self._check_total(total)
        ids = np.array(sorted(requests), dtype=np.int64)
        machines = self.machine_of(ids)
        out: dict[int, int] = {}
        for m, lo, hi in self._runs(machines):
            deq = DynamicEquiPartitioning(int(self._rotation[m]))
            members = ids[lo:hi].tolist()
            out.update(
                deq.allocate({j: requests[j] for j in members}, int(self._budgets[m]))
            )
            self._rotation[m] = deq.rotation
        self._check_budgets(
            machines, np.array([out[int(j)] for j in ids], dtype=np.int64)
        )
        return out

    def allocate_batch(
        self, ids: np.ndarray, requests: np.ndarray, total: int
    ) -> np.ndarray:
        """One segmented DEQ waterfall over every machine.

        Each round runs one waterfall round on every machine still
        dividing: a machine whose equal share covers some requests grants
        them and redistributes the rest next round; a machine whose share
        covers none splits evenly, hands the remainder out from its own
        rotation offset, advances its counter and stops.  ``ids`` arrive
        sorted, so a machine's jobs are contiguous and in the order its own
        DEQ would scan them.
        """
        self._check_total(total)
        budgets = self._budgets
        count = budgets.size
        machines = self.machine_of(ids)
        # A machine owns exactly as many ids as processors, so DEQ's
        # |J_m| <= P_m holds by construction; only requests can be bad.
        bad = np.flatnonzero(requests < 1)
        if bad.size:
            raise ValueError(
                f"job {int(ids[bad[0]])} must request at least one processor"
            )
        out = np.zeros(ids.size, dtype=np.int64)
        remaining = budgets.copy()
        active = np.arange(ids.size, dtype=np.int64)
        while active.size:
            on = machines[active]
            req = requests[active]
            unsat = np.bincount(on, minlength=count)
            share = remaining // np.maximum(unsat, 1)
            low = req <= share[on]
            sat = active[low]
            out[sat] = req[low]
            remaining -= np.bincount(
                on[low], weights=req[low], minlength=count
            ).astype(np.int64)
            # Machines where nobody was satisfied run the rotating round.
            rotating = (unsat > 0) & (np.bincount(on[low], minlength=count) == 0)
            in_rot = rotating[on]
            if in_rot.any():
                jobs = active[in_rot]
                where = on[in_rot]
                rank = np.arange(jobs.size, dtype=np.int64) - np.searchsorted(where, where)
                size = unsat[where]
                extra = remaining[where] - share[where] * size
                offset = self._rotation[where] % size
                out[jobs] = share[where] + (((rank - offset) % size) < extra)
                self._rotation[rotating] += 1
            active = active[~low & ~in_rot]
        self._check_budgets(machines, out)
        return out

    # ------------------------------------------------------------------
    # superstep certification: every machine's own DEQ decides

    def fixed_point_probe(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        limit: int,
    ) -> int:
        """The allocation repeats while every machine's own DEQ allocation
        repeats (see :meth:`DynamicEquiPartitioning.fixed_point_probe`)."""
        span = limit
        for m, lo, hi in self._runs(self.machine_of(ids)):
            if span <= 0:
                break
            span = DynamicEquiPartitioning(int(self._rotation[m])).fixed_point_probe(
                ids[lo:hi], requests[lo:hi], grants[lo:hi], int(self._budgets[m]), span
            )
        return max(span, 0)

    def fixed_point_advance(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        span: int,
    ) -> None:
        for m, lo, hi in self._runs(self.machine_of(ids)):
            deq = DynamicEquiPartitioning(int(self._rotation[m]))
            deq.fixed_point_advance(
                ids[lo:hi], requests[lo:hi], grants[lo:hi], int(self._budgets[m]), span
            )
            self._rotation[m] = deq.rotation

    def __repr__(self) -> str:
        return f"DisjointMachines(budgets={list(self.budgets)!r})"
