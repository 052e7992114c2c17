"""Core value types shared across the ABG reproduction.

The two-level scheduling framework of the paper divides a job's execution into
*scheduling quanta* of ``L`` time steps.  Everything the feedback algorithms,
allocators, and analyses consume is captured per quantum in
:class:`QuantumRecord`; a job's whole execution is a :class:`JobTrace`.

Conventions (matching the paper's notation):

- ``d(q)``  — processor request (real-valued controller state; the integer
  request actually sent to the OS allocator is ``ceil(d(q))``).
- ``p(q)``  — processors available to the job under the allocator's policy.
- ``a(q)``  — allotment, ``a(q) = min(ceil(d(q)), p(q))``.
- ``T1(q)`` — quantum work: unit tasks completed during the quantum.
- ``Tinf(q)`` — quantum critical-path length: number of dag levels advanced,
  fractional when a level is partially completed (fraction = completed tasks
  on the level / level size).
- ``A(q) = T1(q) / Tinf(q)`` — quantum average parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .columnar import RECORD_FIELDS, TraceColumns

__all__ = [
    "QuantumRecord",
    "JobTrace",
    "columns_valid",
    "integer_request",
    "integer_requests",
    "quantum_records_from_columns",
    "transition_factor_of_series",
]


def integer_request(d: float) -> int:
    """Convert a real-valued controller request into the integer processor
    request sent to the OS allocator.

    The controller state is real-valued (Equation 3 of the paper); processors
    are discrete.  We report ``ceil(d)``: the smallest whole number of
    processors covering the controller's target, with a floor of one processor
    (a job must always be able to make progress, cf. Section 5.1's fairness
    assumption).  A tiny tolerance absorbs float error so that e.g. a
    converged ``d = 5.000000000001`` still requests 5.
    """
    if d != d or d < 0:  # NaN or negative
        raise ValueError(f"invalid processor request {d!r}")
    return max(1, math.ceil(d - 1e-9))


def integer_requests(d: np.ndarray) -> np.ndarray:
    """:func:`integer_request` over an array of requests, as int64.

    The same ceiling-with-tolerance arithmetic, without the validation: each
    caller decides what a NaN or negative entry means (the simulation kernel
    raises, the auditor reports a violation), and must keep every entry it
    converts below ``2**63``.
    """
    return np.maximum(1, np.ceil(d - 1e-9).astype(np.int64))


@dataclass(frozen=True, slots=True)
class QuantumRecord:
    """Everything observed about one scheduling quantum of one job."""

    index: int
    """Quantum number ``q``, starting at 1."""

    request: float
    """Real-valued controller request ``d(q)``."""

    request_int: int
    """Integer request sent to the allocator, ``ceil(d(q))``."""

    available: int
    """Processors available ``p(q)`` under the allocator's policy."""

    allotment: int
    """Granted processors ``a(q) = min(request_int, available)``."""

    work: int
    """Quantum work ``T1(q)``: unit tasks completed."""

    span: float
    """Quantum critical-path length ``Tinf(q)`` (fractional levels)."""

    steps: int
    """Time steps the quantum actually ran (== L except possibly the last)."""

    quantum_length: int
    """The nominal quantum length ``L`` in effect for this quantum."""

    start_step: int = 0
    """Absolute time step at which the quantum began."""

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("quantum index starts at 1")
        if self.allotment < 0 or self.available < 0:
            raise ValueError("negative processors")
        if self.allotment > self.available:
            raise ValueError("allotment exceeds availability")
        if self.allotment > self.request_int:
            raise ValueError("allocator is conservative: a(q) <= ceil(d(q))")
        if self.steps < 0 or self.steps > self.quantum_length:
            raise ValueError("quantum steps outside [0, L]")
        if self.work < 0 or self.work > self.allotment * self.steps:
            raise ValueError("quantum work outside [0, a(q) * steps]")
        # Every completed task contributes at most one fractional level, so
        # span <= work always.  The stronger invariant span <= steps (the
        # paper's Tinf(q) <= L, Section 5.1) holds for breadth-first
        # execution but NOT for depth-first disciplines, which smear
        # completions across levels — precisely why B-Greedy exists.
        if self.span < 0 or self.span > self.work + 1e-9:
            raise ValueError("quantum span outside [0, work]")

    # ------------------------------------------------------------------
    # Derived quantities used throughout the paper's analysis
    # ------------------------------------------------------------------

    @property
    def avg_parallelism(self) -> float:
        """``A(q) = T1(q) / Tinf(q)``; defined as 0 for an empty quantum."""
        if self.span == 0:
            return 0.0
        return self.work / self.span

    @property
    def waste(self) -> int:
        """Wasted processor cycles: allotted minus used, ``a(q)*steps - T1(q)``."""
        return self.allotment * self.steps - self.work

    @property
    def is_full(self) -> bool:
        """A *full quantum* has work done on every step, which in our
        discrete-time engines is equivalent to running the entire quantum
        length (the final quantum of a job stops early)."""
        return self.steps == self.quantum_length

    @property
    def deprived(self) -> bool:
        """Whether the allocator granted fewer processors than requested."""
        return self.allotment < self.request_int

    @property
    def satisfied(self) -> bool:
        """Whether the request was fully granted."""
        return not self.deprived

    @property
    def work_efficiency(self) -> float:
        """``alpha(q) = T1(q) / (a(q) * L)`` (Section 5.1), computed against
        the steps actually run so the last quantum stays meaningful."""
        denom = self.allotment * self.steps
        return self.work / denom if denom else 0.0

    @property
    def span_efficiency(self) -> float:
        """``beta(q) = Tinf(q) / L`` (Section 5.1)."""
        return self.span / self.steps if self.steps else 0.0

    @property
    def utilization(self) -> float:
        """Alias of :attr:`work_efficiency`; A-Greedy's efficiency signal."""
        return self.work_efficiency


_RECORD_SETTERS = tuple(QuantumRecord.__dict__[name].__set__ for name in RECORD_FIELDS)
"""Direct slot-descriptor writers, bound once — the trusted batch
constructor's way around the frozen dataclass's per-field
``object.__setattr__`` calls."""


def columns_valid(
    *,
    index: Sequence[int] | np.ndarray,
    request_int: np.ndarray,
    available: np.ndarray,
    allotment: np.ndarray,
    work: np.ndarray,
    span: np.ndarray,
    steps: np.ndarray,
    quantum_length: int | np.ndarray,
) -> bool:
    """Whether every row of aligned columns passes
    :meth:`QuantumRecord.__post_init__`, checked vectorized."""
    valid = (
        (allotment >= 0)
        & (available >= 0)
        & (allotment <= available)
        & (allotment <= request_int)
        & (steps >= 0)
        & (steps <= quantum_length)
        & (work >= 0)
        & (work <= allotment * steps)
        & (span >= 0.0)
        & (span <= work + 1e-9)
    )
    return bool(valid.all()) and (len(index) == 0 or int(np.min(index)) >= 1)


def quantum_records_from_columns(
    *,
    index: Sequence[int],
    request: np.ndarray,
    request_int: np.ndarray,
    available: np.ndarray,
    allotment: np.ndarray,
    work: np.ndarray,
    span: np.ndarray,
    steps: np.ndarray,
    quantum_length: int | Sequence[int],
    start_step: int | Sequence[int],
) -> list[QuantumRecord]:
    """Construct one :class:`QuantumRecord` per row of aligned columns.

    Materializing records through the scalar constructor would re-validate
    row by row in python.  This constructor instead checks every
    :meth:`QuantumRecord.__post_init__` invariant once, vectorized over the
    columns (:func:`columns_valid`), and then builds the (identical)
    instances through direct slot writes.  If any row is invalid,
    construction falls back to the scalar constructor so the offending row
    raises exactly the error — message, row order — the serial path would.

    ``quantum_length`` and ``start_step`` are scalars when the rows are one
    machine-wide quantum (every job starts together) and per-row sequences
    when the rows are one job's trace (each quantum starts at its own step).
    """
    lengths = (
        repeat(quantum_length) if isinstance(quantum_length, int) else quantum_length
    )
    starts = repeat(start_step) if isinstance(start_step, int) else start_step
    rows = zip(
        index,
        request.tolist(),
        request_int.tolist(),
        available.tolist(),
        allotment.tolist(),
        work.tolist(),
        span.tolist(),
        steps.tolist(),
        lengths,
        starts,
    )
    if not columns_valid(
        index=index,
        request_int=request_int,
        available=available,
        allotment=allotment,
        work=work,
        span=span,
        steps=steps,
        quantum_length=np.asarray(quantum_length, dtype=np.int64),
    ):
        return [QuantumRecord(*row) for row in rows]
    new = object.__new__
    setters = _RECORD_SETTERS
    out: list[QuantumRecord] = []
    append = out.append
    for row in rows:
        r = new(QuantumRecord)
        for setter, value in zip(setters, row):
            setter(r, value)
        append(r)
    return out


class JobTrace:
    """The full per-quantum history of one job's execution.

    Aggregates the measurements the paper's evaluation reports: running time,
    wasted processor cycles, and the measured transition factor.

    Column store
    ------------
    A trace keeps its quanta in exactly one place: a
    :class:`~repro.core.columnar.TraceColumns` of aligned per-field arrays.
    The batched kernel hands a finished job its columns whole; the serial
    paths :meth:`append` validated records, whose fields the store packs
    into its arrays on first read.  Every aggregate (running time, work,
    waste, series), serialization, diffing and auditing reads the arrays.
    :attr:`records`, iteration and ``trace[q]`` are read-only row views:
    each call builds fresh :class:`QuantumRecord` objects through
    :meth:`~repro.core.columnar.TraceColumns.build_records`, and nothing
    written to them reaches the trace.
    """

    __slots__ = ("quantum_length", "release_time", "job_id", "_columns")

    def __init__(
        self,
        quantum_length: int,
        columns: TraceColumns | None = None,
        release_time: int = 0,
        job_id: int | None = None,
    ) -> None:
        self.quantum_length = quantum_length
        self._columns = columns if columns is not None else TraceColumns.empty()
        self.release_time = release_time
        self.job_id = job_id

    @property
    def columns(self) -> TraceColumns:
        """The column store, with every appended row packed in."""
        return self._columns.freeze()

    @property
    def records(self) -> list[QuantumRecord]:
        """A freshly built record per quantum, in order."""
        return self.columns.build_records()

    def append(self, record: QuantumRecord) -> None:
        self._columns.append(record)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[QuantumRecord]:
        return iter(self.records)

    def __getitem__(self, q: int) -> QuantumRecord:
        """1-based access mirroring the paper's ``q`` index."""
        if q < 1:
            raise IndexError("quantum index starts at 1")
        row = self.columns.build_records(q - 1, q)
        if not row:
            raise IndexError(f"trace has no quantum {q}")
        return row[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobTrace):
            return NotImplemented
        return (
            self.quantum_length == other.quantum_length
            and self.release_time == other.release_time
            and self.job_id == other.job_id
            and self._columns == other._columns
        )

    def __repr__(self) -> str:
        return (
            f"JobTrace(quantum_length={self.quantum_length!r}, "
            f"columns={self.columns!r}, release_time={self.release_time!r}, "
            f"job_id={self.job_id!r})"
        )

    # ------------------------------------------------------------------
    # Aggregate metrics
    # ------------------------------------------------------------------

    @property
    def running_time(self) -> int:
        """Total time steps from the job's first quantum to completion."""
        return self.columns.total_steps()

    @property
    def completion_time(self) -> int:
        """Absolute completion step (start of first quantum + running time)."""
        if len(self) == 0:
            return self.release_time
        return self.columns.first_start() + self.running_time

    @property
    def response_time(self) -> int:
        """Completion minus release."""
        return self.completion_time - self.release_time

    @property
    def total_work(self) -> int:
        return self.columns.total_work()

    @property
    def total_span(self) -> float:
        return self.columns.total_span()

    @property
    def total_waste(self) -> int:
        return self.columns.total_waste()

    @property
    def full_quanta(self) -> list[QuantumRecord]:
        return [r for r in self.records if r.is_full]

    def avg_parallelism_series(self, *, full_only: bool = True) -> list[float]:
        return self.columns.avg_parallelism_series(full_only=full_only)

    def measured_transition_factor(self) -> float:
        """Transition factor ``CL`` measured from the trace (Section 5.2):
        the maximal ratio of average parallelism between adjacent full
        quanta, with ``A(0)`` defined to be 1."""
        series = [1.0] + self.avg_parallelism_series(full_only=True)
        return transition_factor_of_series(series)

    def request_series(self) -> list[float]:
        return self.columns.request_series()

    def allotment_series(self) -> list[int]:
        return self.columns.allotment_series()

    @property
    def reallocation_count(self) -> int:
        """Number of quantum boundaries at which the allotment changed — the
        practical cost of request instability (context switching, lost
        locality) that Section 4 argues against."""
        allot = self.allotment_series()
        return sum(1 for a, b in zip(allot, allot[1:]) if a != b)

    @property
    def avg_allotment(self) -> float:
        """Time-weighted mean allotment over the execution."""
        total_steps = self.running_time
        if total_steps == 0:
            return 0.0
        return self.columns.allotted_steps() / total_steps


def transition_factor_of_series(parallelism: Sequence[float]) -> float:
    """Max ratio between adjacent entries of a positive parallelism series.

    ``CL = max_q max(A(q)/A(q-1), A(q-1)/A(q))`` — at least 1 by definition.
    Entries that are zero (empty quanta) are skipped.
    """
    c = 1.0
    prev: float | None = None
    for a in parallelism:
        if a <= 0:
            continue
        if prev is not None:
            c = max(c, a / prev, prev / a)
        prev = a
    return c
