"""Column store of :class:`~repro.core.types.JobTrace`.

A trace holds one job's per-quantum history as one aligned numpy array per
:class:`~repro.core.types.QuantumRecord` field.  The batched simulation
kernel (:mod:`repro.sim.multi_batched`) emits those arrays directly; the
serial paths append one validated record at a time, and the store packs the
appended rows into its arrays on :meth:`TraceColumns.freeze`.  Aggregates,
serialization, diffing and auditing all read the arrays; record objects are
built only when someone asks for them, through
:meth:`TraceColumns.build_records`.

Bit-identity contract
---------------------
Every value in the columns is exactly the value the record would hold
(``tolist`` turns int64 and float64 entries back into the same python
scalars), and every aggregate here replays the per-record arithmetic:

- integer reductions (steps, work, waste) are exact in int64, so numpy sums
  equal the python sums;
- the float reduction ``total_span`` iterates python floats left to right —
  the same IEEE-754 addition order as ``sum(r.span for r in records)`` —
  rather than numpy's pairwise summation, which is faster but rounds
  differently;
- per-row derived values (``avg_parallelism``) repeat the record property's
  python-scalar arithmetic.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # types.py imports this module at load time
    from .types import QuantumRecord

__all__ = ["RECORD_FIELDS", "TraceColumns"]

RECORD_FIELDS = (
    "index",
    "request",
    "request_int",
    "available",
    "allotment",
    "work",
    "span",
    "steps",
    "quantum_length",
    "start_step",
)
"""The record fields, in column, constructor and serialization order."""

_DTYPES = tuple(
    np.float64 if name in ("request", "span") else np.int64 for name in RECORD_FIELDS
)
_ALLOTMENT = RECORD_FIELDS.index("allotment")
_row_of = attrgetter(*RECORD_FIELDS)


class TraceColumns:
    """One job's whole per-quantum history as aligned columns.

    Every field is per-row, ``quantum_length`` too: the single-job loop may
    vary ``L`` from quantum to quantum.  The arrays may be views into a
    larger simulation-wide buffer; they are never written after
    construction.  :meth:`append` queues rows that only reach the arrays at
    :meth:`freeze` — :attr:`JobTrace.columns <repro.core.types.JobTrace.columns>`
    always hands out a frozen store.
    """

    __slots__ = (*RECORD_FIELDS, "_tail")

    def __init__(self, **columns: np.ndarray) -> None:
        if columns.keys() != set(RECORD_FIELDS):
            raise TypeError(f"TraceColumns needs exactly the columns {RECORD_FIELDS}")
        for name in RECORD_FIELDS:
            setattr(self, name, columns[name])
        self._tail: list[tuple[Any, ...]] = []

    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls(**{n: np.empty(0, dtype=t) for n, t in zip(RECORD_FIELDS, _DTYPES)})

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[Any, ...]]) -> "TraceColumns":
        """Columns of ``rows``, each a tuple of field values in
        :data:`RECORD_FIELDS` order (no validation)."""
        if not rows:
            return cls.empty()
        columns = zip(RECORD_FIELDS, _DTYPES, zip(*rows))
        return cls(**{name: np.array(col, dtype=dtype) for name, dtype, col in columns})

    def __len__(self) -> int:
        return int(self.index.size) + len(self._tail)

    def __repr__(self) -> str:
        """The column values; builds no record, so invalid rows print too."""
        frozen = self.freeze()
        values = ", ".join(f"{n}={getattr(frozen, n).tolist()!r}" for n in RECORD_FIELDS)
        return f"TraceColumns({values})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        a, b = self.freeze(), other.freeze()
        return len(a) == len(b) and all(
            np.array_equal(getattr(a, name), getattr(b, name)) for name in RECORD_FIELDS
        )

    # ------------------------------------------------------------------
    # Building (the serial simulation paths)
    # ------------------------------------------------------------------

    def append(self, record: "QuantumRecord") -> None:
        """Queue an already-validated record's fields as the next row."""
        tail = self._tail
        if tail:
            last: int | None = tail[-1][0]
        else:
            last = int(self.index[-1]) if self.index.size else None
        if last is not None and record.index != last + 1:
            raise ValueError("quantum records must be appended in order")
        if last is None and record.index != 1:
            raise ValueError("first quantum record must have index 1")
        tail.append(_row_of(record))

    def last_allotment(self) -> int | None:
        """``a(q)`` of the latest row, appended or packed; None when empty."""
        if self._tail:
            allotment: int = self._tail[-1][_ALLOTMENT]
            return allotment
        return int(self.allotment[-1]) if self.allotment.size else None

    def freeze(self) -> "TraceColumns":
        """Pack the appended rows into the arrays; returns ``self``."""
        if self._tail:
            packed = TraceColumns.from_rows(self._tail)
            for name in RECORD_FIELDS:
                joined = (getattr(self, name), getattr(packed, name))
                setattr(self, name, np.concatenate(joined))
            self._tail = []
        return self

    # ------------------------------------------------------------------
    # Aggregates (the values JobTrace reports)
    # ------------------------------------------------------------------

    def total_steps(self) -> int:
        return int(self.steps.sum())

    def total_work(self) -> int:
        return int(self.work.sum())

    def total_span(self) -> float:
        # Left-to-right python-float addition, matching
        # ``sum(r.span for r in records)`` bit for bit (numpy's pairwise
        # summation would not).
        total = 0.0
        for value in self.span.tolist():
            total += value
        return total

    def total_waste(self) -> int:
        return int((self.allotment * self.steps - self.work).sum())

    def allotted_steps(self) -> int:
        """``sum(a(q) * steps(q))`` — the numerator of ``avg_allotment``."""
        return int((self.allotment * self.steps).sum())

    def first_start(self) -> int:
        return int(self.start_step[0])

    def request_series(self) -> list[float]:
        result: list[float] = self.request.tolist()
        return result

    def allotment_series(self) -> list[int]:
        result: list[int] = self.allotment.tolist()
        return result

    def avg_parallelism_series(self, *, full_only: bool) -> list[float]:
        if full_only:
            mask = self.steps == self.quantum_length
            work = self.work[mask]
            span = self.span[mask]
        else:
            work = self.work
            span = self.span
        # Python-scalar division per row, as QuantumRecord.avg_parallelism
        # computes it (int / float), with the same empty-quantum zero.
        return [
            0.0 if tinf == 0 else t1 / tinf
            for t1, tinf in zip(work.tolist(), span.tolist())
        ]

    # ------------------------------------------------------------------

    def build_records(self, start: int = 0, stop: int | None = None) -> list["QuantumRecord"]:
        """Rows ``start:stop`` as :class:`QuantumRecord` objects (vectorized
        validation, trusted construction) — the only place records are
        built from a trace."""
        from .types import quantum_records_from_columns

        self.freeze()
        rows = slice(start, stop)
        return quantum_records_from_columns(
            index=self.index[rows].tolist(),
            request=self.request[rows],
            request_int=self.request_int[rows],
            available=self.available[rows],
            allotment=self.allotment[rows],
            work=self.work[rows],
            span=self.span[rows],
            steps=self.steps[rows],
            quantum_length=self.quantum_length[rows].tolist(),
            start_step=self.start_step[rows].tolist(),
        )
