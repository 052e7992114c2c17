"""Dynamic equi-partitioning (DEQ) — McCann, Vaswani, Zahorjan (1993).

The fair, non-reserving allocator the paper couples ABG with for the
multiprogrammed experiments (Sections 6.3, 7): each quantum every job is
offered an equal share of the ``P`` processors; jobs requesting less than
their share get exactly their request, and the processors they decline are
redistributed equally among the still-unsatisfied jobs, repeating until every
job is satisfied or the equal share is exhausted.

When the final equal share does not divide evenly, the leftover processors
are handed one each to the unsatisfied jobs in a rotating order so no job is
systematically favored across quanta.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .base import Allocator

__all__ = ["DynamicEquiPartitioning"]


class DynamicEquiPartitioning(Allocator):
    """Fair and non-reserving processor allocation."""

    fair = True
    non_reserving = True

    def __init__(self, rotation: int = 0) -> None:
        self._rotation = int(rotation)

    @property
    def rotation(self) -> int:
        """How many quanta reached the rotating round so far (the remainder
        offset is this counter modulo the unsatisfied-job count)."""
        return self._rotation

    def allocate(self, requests: Mapping[int, int], total: int) -> dict[int, int]:
        if total < 1:
            raise ValueError("need at least one processor")
        for j, d in requests.items():
            if d < 1:
                raise ValueError(f"job {j} must request at least one processor")
        if len(requests) > total:
            raise ValueError(
                f"DEQ requires |J| <= P (got {len(requests)} jobs, {total} processors)"
            )
        if not requests:
            return {}

        alloc = {j: 0 for j in requests}
        remaining = total
        unsat = sorted(requests)  # stable job-id order
        while unsat:
            share = remaining // len(unsat)
            low = [j for j in unsat if requests[j] <= share]
            if low:
                # Satisfied jobs take their (smaller) request; their declined
                # share is redistributed in the next round.
                for j in low:
                    alloc[j] = requests[j]
                    remaining -= requests[j]
                unsat = [j for j in unsat if requests[j] > share]
                continue
            # Everyone left wants more than the equal share: split evenly and
            # rotate the remainder.
            extra = remaining - share * len(unsat)
            offset = self._rotation % len(unsat)
            for i, j in enumerate(unsat):
                bonus = 1 if (i - offset) % len(unsat) < extra else 0
                alloc[j] = share + bonus
            self._rotation += 1
            break
        return alloc

    def allocate_batch(
        self, ids: np.ndarray, requests: np.ndarray, total: int
    ) -> np.ndarray:
        """Array-native DEQ: the same waterfall over aligned arrays.

        ``ids`` arrive sorted, so each redistribution round selects exactly
        the jobs the mapping path's ``sorted(requests)`` scan would, and the
        remainder rotation walks the identical order — allotments and the
        ``_rotation`` counter evolve bit-for-bit alike whichever entry point
        a quantum uses.
        """
        if total < 1:
            raise ValueError("need at least one processor")
        n = len(ids)
        bad = np.flatnonzero(requests < 1)
        if bad.size:
            raise ValueError(
                f"job {int(ids[bad[0]])} must request at least one processor"
            )
        if n > total:
            raise ValueError(
                f"DEQ requires |J| <= P (got {n} jobs, {total} processors)"
            )
        out = np.zeros(n, dtype=np.int64)
        remaining = total
        active = np.arange(n, dtype=np.int64)
        while active.size:
            m = active.size
            share = remaining // m
            low = requests[active] <= share
            if low.any():
                sat = active[low]
                out[sat] = requests[sat]
                remaining -= int(requests[sat].sum())
                active = active[~low]
                continue
            extra = remaining - share * m
            offset = self._rotation % m
            out[active] = share + (((np.arange(m, dtype=np.int64) - offset) % m) < extra)
            self._rotation += 1
            break
        return out

    def _classify(self, requests: np.ndarray, total: int) -> bool | None:
        """Re-derive the waterfall (without granting): ``None`` when every
        job is satisfied through the ``requests <= share`` rounds (rotation
        never consulted), ``True`` when the rotating round runs with
        ``extra == 0`` (grants pure, rotation still advances), ``False``
        when ``extra > 0`` (the bonus processors move next quantum)."""
        remaining = total
        active = requests
        while active.size:
            share = remaining // active.size
            low = active <= share
            if low.any():
                remaining -= int(active[low].sum())
                active = active[~low]
                continue
            return remaining - share * active.size == 0
        return None

    def fixed_point_probe(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        limit: int,
    ) -> int:
        """DEQ's allocation repeats exactly when the rotation cannot move it.

        Re-deriving the waterfall (without granting) classifies the quantum:

        - every job satisfied through the ``requests <= share`` rounds — the
          allocation is a pure function of the requests and ``_rotation`` is
          never consulted or advanced: a fixed point for any horizon;
        - the rotating round runs with ``extra == 0`` — the equal split is
          exact, so the offset is irrelevant to the grants (``_rotation``
          still advances once per quantum; see :meth:`fixed_point_advance`);
        - the rotating round runs with ``extra > 0`` — the bonus processors
          move next quantum, so there is no fixed point at all.  Note the
          grants alone cannot detect this case: when every unsatisfied job
          requests ``share + 1``, the rotating round grants requests exactly.
        """
        if limit <= 0:
            return 0
        return 0 if self._classify(requests, total) is False else limit

    def fixed_point_advance(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        span: int,
    ) -> None:
        # Skipped quanta advance the rotation only if they reach the rotating
        # round; all-satisfied quanta never consult the counter.
        if self._classify(requests, total) is True:
            self._rotation += span
