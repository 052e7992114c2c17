"""Single-job availability policies ``p(q)``.

:class:`ConstantAvailability` is the unconstrained setting of the paper's
first simulation set ("all processor requests from both schedulers are
granted", Section 7.2, given requests stay within ``P``).  The adversarial
policy exercises the deprived regime that trim analysis (Section 6.1)
reasons about: an allocator that offers many processors exactly
when the job cannot use them defeats naive speedup accounting, and the
trimmed availability ``P~`` is the remedy.
"""

from __future__ import annotations

from ..core.types import QuantumRecord
from .base import AvailabilityPolicy

__all__ = [
    "ConstantAvailability",
    "InverseParallelismAvailability",
    "TraceAvailability",
]


class ConstantAvailability(AvailabilityPolicy):
    """``p(q) = P`` for every quantum."""

    def __init__(self, processors: int):
        if processors < 1:
            raise ValueError("need at least one processor")
        self.processors = int(processors)

    def available(self, q: int, prev: QuantumRecord | None) -> int:
        return self.processors


class InverseParallelismAvailability(AvailabilityPolicy):
    """The trim-analysis adversary: offer ``high`` processors while the job's
    measured parallelism is at or below ``cutoff`` (it cannot use them) and
    only ``low`` once parallelism exceeds the cutoff (starving it exactly when
    it could speed up).

    Against this policy the *average* availability is large while the
    achievable speedup is small — the situation trimming the
    ``O(CL*Tinf + L)`` highest-availability steps repairs (Theorem 3).
    """

    def __init__(self, high: int, low: int, cutoff: float):
        if not (1 <= low <= high):
            raise ValueError("need 1 <= low <= high")
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        self.high = int(high)
        self.low = int(low)
        self.cutoff = float(cutoff)

    def available(self, q: int, prev: QuantumRecord | None) -> int:
        if prev is None or prev.avg_parallelism <= self.cutoff:
            return self.high
        return self.low


class TraceAvailability(AvailabilityPolicy):
    """Replay a recorded availability sequence; the last value repeats once
    the trace is exhausted."""

    def __init__(self, values: list[int] | tuple[int, ...]):
        if not values or any(v < 1 for v in values):
            raise ValueError("need a non-empty sequence of positive availabilities")
        self.values = tuple(int(v) for v in values)

    def available(self, q: int, prev: QuantumRecord | None) -> int:
        return self.values[min(q - 1, len(self.values) - 1)]
