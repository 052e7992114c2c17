"""Feedback-policy interface.

Between scheduling quanta the user-level task scheduler sends the OS
allocator a *processor request* computed from what it observed during the
previous quantum (parallelism feedback, Section 1).  A
:class:`FeedbackPolicy` is that request calculator.

Policies are deliberately *stateless*: the next request is a pure function of
the previous quantum's :class:`~repro.core.types.QuantumRecord` (which
contains the previous request).  This mirrors the paper's non-clairvoyance —
the policy sees only measured history — and makes policies trivially
testable and replayable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .types import QuantumRecord, integer_requests

__all__ = ["FeedbackPolicy"]


class FeedbackPolicy(ABC):
    """Computes the processor request ``d(q+1)`` from quantum ``q``'s record."""

    #: Human-readable policy name used in experiment tables.
    name: str = "feedback"

    def first_request(self) -> float:
        """``d(1)`` — the paper initializes every policy at one processor."""
        return 1.0

    @abstractmethod
    def next_request(self, prev: QuantumRecord) -> float:
        """``d(q+1)`` given quantum ``q``'s full record."""

    def next_request_batch(
        self,
        *,
        request: np.ndarray,
        request_int: np.ndarray,
        allotment: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps: np.ndarray,
    ) -> np.ndarray | None:
        """Vectorized ``d(q+1)`` for many jobs' quantum-``q`` measurements.

        The windowed simulation loop (:mod:`repro.sim.sharded`) calls this
        with one aligned float64 / int64 array per :class:`QuantumRecord`
        field it consumes.  An implementation must return ``result[i]``
        *bit-identical* to ``next_request(record_i)`` for every ``i`` — the
        loop's byte-for-byte artifact guarantee depends on it.  The base
        implementation returns ``None``: no array form, so the simulator runs
        any set holding such a policy on the serial reference loop (the
        contract of :meth:`~repro.allocators.base.Allocator.allocate_batch`).
        An override must return an array.

        Contract for subclasses: a class that overrides :meth:`next_request`
        while inheriting an override of ``next_request_batch`` from an
        ancestor would silently diverge between the serial and windowed
        loops — such a class must override this method too.
        """
        return None

    def advance_request_batch(
        self,
        *,
        request: np.ndarray,
        request_int: np.ndarray,
        allotment: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps: np.ndarray,
        quanta: int,
    ) -> np.ndarray | None:
        """The request trajectory through up to ``quanta`` consecutive quanta
        that all repeat these measurements at integer request
        ``request_int``, or ``None`` when no quantum can be fast-forwarded.

        The superstep layer (:mod:`repro.sim.sharded`) fast-forwards ``K``
        quanta when the allocator's grants and every job's measurements
        repeat.  The real request may still move: A-Control's filter
        ``d' = r*d + (1-r)*A`` approaches ``A`` geometrically, so ``ceil(d)``
        — and with it the allocation — settles many quanta before ``d``
        becomes a bitwise fixed point.  Those quanta differ only in their
        ``request`` field, which this method supplies.

        The result ``traj`` has shape ``(k + 1, n)`` with
        ``1 <= k <= quanta``: row ``j < k`` is the request of the ``j``-th
        repeated quantum (row 0 is ``request``) and every one of those rows
        has integer request ``request_int``; row ``k`` is the request after
        the ``k``-th quantum, with which the next quantum starts (its integer
        request may differ — that change is what ended the trajectory when
        ``k < quanta``).  Each row is :meth:`next_request_batch` applied to
        the previous one with the constant measurements: the same IEEE-754
        operations the serial loop applies per record, so every row is
        bit-identical to iterating :meth:`next_request`.  A row that is a
        bitwise fixed point of one application repeats to row ``quanta``.

        ``None`` means refusal: ``request`` itself is not a valid request
        at integer request ``request_int``, or the policy has no array form
        (it does not override :meth:`next_request_batch`, so the simulator
        never runs it on the windowed loop).
        """
        if quanta < 1:
            raise ValueError("a superstep advance covers at least one quantum")
        cur = np.ascontiguousarray(request, dtype=np.float64)
        if not _holds(cur, request_int):
            return None
        rows = [cur]
        while len(rows) <= quanta:
            nxt = self.next_request_batch(
                request=cur,
                request_int=request_int,
                allotment=allotment,
                work=work,
                span=span,
                steps=steps,
            )
            if nxt is None:
                return None
            if nxt.tobytes() == cur.tobytes():
                tail = np.broadcast_to(nxt, (quanta + 1 - len(rows), nxt.size))
                return np.concatenate((np.stack(rows), tail))
            rows.append(nxt)
            if not _holds(nxt, request_int):
                break
            cur = nxt
        return np.stack(rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _holds(request: np.ndarray, request_int: np.ndarray) -> bool:
    """Whether every request is valid (NaN and negatives are not) and rounds
    to its entry of ``request_int``."""
    return bool((request >= 0).all()) and np.array_equal(
        integer_requests(request), request_int
    )
