"""OS-allocator interfaces.

Two shapes of allocation appear in the paper:

- *Single job* (Figure 5 experiments): the job is alone on the machine and the
  allocator's "system policy" reduces to a per-quantum availability ``p(q)``;
  the conservative rule ``a(q) = min(d(q), p(q))`` does the rest.  Trim
  analysis (Section 6.1) explicitly treats this availability as adversarial.
  :class:`AvailabilityPolicy` captures it.
- *Multiprogrammed* (Figure 6 experiments): a set of jobs space-shares ``P``
  processors and the allocator divides them per quantum from the jobs'
  requests.  :class:`Allocator` captures it; implementations must say whether
  they are *fair* (equal shares unless a job asks for less) and
  *non-reserving* (no processor idles while someone wants more) — the two
  properties Theorem 5 requires.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

from ..core.types import QuantumRecord

__all__ = [
    "AvailabilityPolicy",
    "Allocator",
    "validate_allocation",
    "validate_allocation_arrays",
]


class AvailabilityPolicy(ABC):
    """Per-quantum processor availability ``p(q)`` for a single job."""

    @abstractmethod
    def available(self, q: int, prev: QuantumRecord | None) -> int:
        """Processors available in quantum ``q`` (>= 1); ``prev`` is the
        job's previous quantum record (``None`` for ``q = 1``), letting
        adversarial policies react to the job's observed behaviour."""


class Allocator(ABC):
    """Divides ``total`` processors among jobs' integer requests each quantum.

    An allocator may keep state from one quantum to the next: DEQ's
    rotation of who gets the leftover processors, the per-machine counters
    of :class:`~repro.allocators.machines.DisjointMachines`, the rebalance
    clock of :class:`~repro.allocators.hierarchical.HierarchicalAllocator`.
    A run leaves that state where its last quantum left it, so a second run
    with the same instance schedules differently: give each run a fresh
    allocator.
    """

    #: Whether the policy gives all jobs equal shares unless a job requests
    #: fewer (paper Section 5.1 footnote).
    fair: bool = False

    #: Whether the policy never keeps a processor idle while some job
    #: requests more.
    non_reserving: bool = False

    @abstractmethod
    def allocate(self, requests: Mapping[int, int], total: int) -> dict[int, int]:
        """Map each job id to its allotment.

        Must be *conservative* (``alloc[j] <= requests[j]``), never exceed
        ``total`` in aggregate, and give every job at least one processor
        whenever ``len(requests) <= total`` (the paper's standing assumption
        ``|J| <= P``).
        """

    def allocate_batch(
        self, ids: np.ndarray, requests: np.ndarray, total: int
    ) -> np.ndarray | None:
        """Array-native :meth:`allocate` for the batched simulation kernel.

        ``ids`` are the active job ids in strictly increasing order and
        ``requests`` the aligned integer requests; the return value is the
        aligned allotment array.  An implementation must produce exactly the
        allotments (and evolve exactly the internal state, e.g. rotation
        counters) that ``allocate({ids[i]: requests[i], ...}, total)`` would —
        the serial reference loop calls the mapping form, the windowed loop
        this one, and their bit-for-bit agreement depends on it.  The base
        implementation returns ``None``: no array path, so the simulator runs
        the set on the serial loop.  An override must return an array.
        """
        return None

    def machine_sizes(self, ids: np.ndarray, total: int) -> np.ndarray:
        """The size of the machine each job in ``ids`` (any order) runs on:
        the ``available`` field of a satisfied job's quantum records.  Every
        allocator that divides one machine returns ``total``; one that runs
        jobs on disjoint sub-machines returns each job's sub-machine size,
        so a job's trace reads as it would on that machine alone."""
        return np.full(len(ids), total, dtype=np.int64)

    def fixed_point_probe(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        limit: int,
    ) -> int:
        """Pure half of :meth:`allocation_fixed_point`: how many upcoming
        quanta this allocation is guaranteed to repeat for, *without*
        touching any internal state.

        ``grants`` is the array :meth:`allocate_batch` just returned for
        ``(ids, requests, total)``.  The return value is ``k`` in
        ``[0, limit]`` such that the next ``k`` calls of ``allocate_batch``
        with the same arguments would return ``grants`` again.  Probing must
        be side-effect free so that composite allocators (and the windowed
        loop) can probe several sub-allocations, take the minimum, and
        only then commit via :meth:`fixed_point_advance` — probing twice, or
        probing further than the caller ultimately advances, must be
        harmless.  Returning 0 always is correct; the base implementation
        knows nothing about the policy's state and does exactly that.
        """
        return 0

    def fixed_point_advance(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        span: int,
    ) -> None:
        """Commit half of :meth:`allocation_fixed_point`: advance internal
        state (rotation counters and the like) exactly as ``span`` calls of
        ``allocate_batch(ids, requests, total)`` would.  The caller must have
        obtained ``span <= fixed_point_probe(...)`` for the same arguments;
        the byte-for-byte artifact guarantee depends on the state evolving
        identically to the skipped calls.  The base probe never certifies a
        span, so the base advance has nothing to do.
        """

    def allocation_fixed_point(
        self,
        ids: np.ndarray,
        requests: np.ndarray,
        grants: np.ndarray,
        total: int,
        limit: int,
    ) -> int:
        """How many upcoming quanta this allocation is a fixed point for.

        The superstep layer calls this after a quantum whose requests are
        known to repeat: ``grants`` is the array :meth:`allocate_batch` just
        returned for ``(ids, requests, total)``.  The call returns ``k`` in
        ``[0, limit]`` such that the next ``k`` calls of
        ``allocate_batch(ids, requests, total)`` are *guaranteed* to return
        ``grants`` again, and it advances the internal state exactly as
        those ``k`` calls would — the simulator then skips them wholesale,
        and the byte-for-byte artifact guarantee depends on the state
        evolving identically.  Implementations override the
        :meth:`fixed_point_probe` / :meth:`fixed_point_advance` pair rather
        than this composed entry point.
        """
        span = self.fixed_point_probe(ids, requests, grants, total, limit)
        if span > 0:
            self.fixed_point_advance(ids, requests, grants, total, span)
        return span


def validate_allocation(
    requests: Mapping[int, int], alloc: Mapping[int, int], total: int
) -> None:
    """Assert the invariants every allocator must satisfy (used by tests and
    the simulator's internal checks)."""
    if set(alloc) != set(requests):
        raise AssertionError("allocation must cover exactly the requesting jobs")
    if sum(alloc.values()) > total:
        raise AssertionError("allocated more processors than exist")
    for j, a in alloc.items():
        if a < 0:
            raise AssertionError(f"job {j} got a negative allotment")
        if a > requests[j]:
            raise AssertionError(f"job {j} got more than it requested (not conservative)")
    if len(requests) <= total and any(a < 1 for a in alloc.values()):
        raise AssertionError("with |J| <= P every job must receive a processor")


def validate_allocation_arrays(
    ids: np.ndarray, requests: np.ndarray, alloc: np.ndarray, total: int
) -> None:
    """:func:`validate_allocation` over aligned arrays (same invariants,
    same messages) — the check the simulator applies on the array-native
    allocation path, where coverage is structural alignment."""
    if alloc.shape != requests.shape:
        raise AssertionError("allocation must cover exactly the requesting jobs")
    if int(alloc.sum()) > total:
        raise AssertionError("allocated more processors than exist")
    bad = np.flatnonzero(alloc < 0)
    if bad.size:
        raise AssertionError(f"job {int(ids[bad[0]])} got a negative allotment")
    bad = np.flatnonzero(alloc > requests)
    if bad.size:
        raise AssertionError(
            f"job {int(ids[bad[0]])} got more than it requested (not conservative)"
        )
    if len(requests) <= total and alloc.size and int(alloc.min()) < 1:
        raise AssertionError("with |J| <= P every job must receive a processor")
