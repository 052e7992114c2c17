"""Trim analysis (paper Section 6.1).

Trim analysis limits the power of an adversarial OS allocator: an allocator
may dangle many processors exactly when the job cannot use them, wrecking
speedup measured against *average* availability.  Trimming the ``R`` time
steps with the highest availability and averaging over the rest yields the
*R-trimmed availability* ``P~``, against which ABG achieves nearly linear
speedup (Theorem 3).

Quantum classification (Section 6.1): a *full* quantum ``q`` is

- **accounted** if the request was deprived (``a(q) < d(q)``) *and* the
  allotment ran below the measured parallelism (``a(q) < A(q)``) — these
  quanta make guaranteed work progress (``alpha(q) >= 1/2``);
- **deductible** otherwise (``a(q) = d(q)`` or ``a(q) >= A(q)``) — these make
  guaranteed critical-path progress.

The job's final, non-full quantum is neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.types import JobTrace, QuantumRecord

__all__ = ["QuantumClasses", "classify_quanta", "trimmed_availability"]


@dataclass(frozen=True, slots=True)
class QuantumClasses:
    """Partition of a trace's quanta per the trim analysis."""

    accounted: tuple[QuantumRecord, ...]
    deductible: tuple[QuantumRecord, ...]
    non_full: tuple[QuantumRecord, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.accounted), len(self.deductible), len(self.non_full))


def classify_quanta(trace: JobTrace) -> QuantumClasses:
    """Split a job trace into accounted / deductible / non-full quanta."""
    accounted: list[QuantumRecord] = []
    deductible: list[QuantumRecord] = []
    non_full: list[QuantumRecord] = []
    for rec in trace:
        if not rec.is_full:
            non_full.append(rec)
        elif rec.allotment < rec.request_int and rec.allotment < rec.avg_parallelism:
            accounted.append(rec)
        else:
            deductible.append(rec)
    return QuantumClasses(
        accounted=tuple(accounted),
        deductible=tuple(deductible),
        non_full=tuple(non_full),
    )


def trimmed_availability(trace: JobTrace, trim_steps: float) -> float:
    """The ``R``-trimmed processor availability ``P~``.

    Every quantum contributes ``steps`` time steps at availability ``p(q)``.
    The ``trim_steps`` steps with the *highest* availability are removed and
    the mean availability of the remaining steps returned.  If trimming
    swallows the whole execution (an empty trace has none to begin with) the
    bound is vacuous and 0 is returned.
    """
    if trim_steps < 0:
        raise ValueError("cannot trim a negative number of steps")
    avail = np.array([rec.available for rec in trace], dtype=np.float64)
    steps = np.array([rec.steps for rec in trace], dtype=np.float64)
    order = np.argsort(-avail)  # highest availability first
    avail, steps = avail[order], steps[order]
    remaining_to_trim = float(trim_steps)
    kept_weight = 0.0
    kept_sum = 0.0
    for p, s in zip(avail, steps):
        if remaining_to_trim >= s:
            remaining_to_trim -= s
            continue
        keep = s - remaining_to_trim
        remaining_to_trim = 0.0
        kept_weight += keep
        kept_sum += p * keep
    if kept_weight <= 0.0:
        return 0.0
    return float(kept_sum / kept_weight)
