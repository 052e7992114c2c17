"""Divergence-point diffing of quantum traces.

Given the recorded (golden) traces and a replay's traces,
:func:`first_divergence` compares their columns, vectorized, and finds the
*first diverging quantum* — ordered by the machine-wide time at which it
started, then by job id — and reports a structured field-level diff: job
id, quantum index, field name, expected vs got.  Floats are compared by
their IEEE-754 bit patterns (``-0.0`` and ``0.0`` are different answers; so
are two NaNs with different payloads), matching the byte-identity contract
the execution paths promise.

Divergence kinds:

- ``"field"`` — same shape, different values at a quantum (the common
  regression signature);
- ``"quantum-count"`` — a job ran a different number of quanta (one trace
  is a prefix of the other);
- ``"job-set"`` — the replay produced traces for a different set of jobs;
- ``"metadata"`` — per-trace metadata (quantum length, release time)
  disagrees before any record is compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..core.columnar import RECORD_FIELDS
from ..core.types import JobTrace

__all__ = ["RECORD_FIELDS", "FieldDiff", "TraceDivergence", "first_divergence"]


def _differs(expected: np.ndarray, got: np.ndarray) -> np.ndarray:
    """Row mask of a column pair: ints compared exactly, floats by their
    IEEE-754 bit patterns."""
    if expected.dtype.kind == "f" or got.dtype.kind == "f":
        expected = expected.astype(np.float64).view(np.uint64)
        got = got.astype(np.float64).view(np.uint64)
    return expected != got


@dataclass(frozen=True, slots=True)
class FieldDiff:
    """One record field that disagrees at the diverging quantum."""

    field: str
    expected: float | int
    got: float | int

    def __str__(self) -> str:
        return f"{self.field} expected {self.expected!r} got {self.got!r}"


@dataclass(frozen=True, slots=True)
class TraceDivergence:
    """The first point where a replay left the golden trajectory.

    ``quantum`` is the per-job quantum index of the diverging record (its
    ``index`` field) and ``position`` its 0-based offset in the job's
    record list; ``start_step`` is the machine-wide step the quantum
    started at — the global ordering key.  ``fields`` lists every field
    that differs at that (job, quantum), so one report shows the whole
    local signature of the regression, not just the first column.
    """

    kind: str
    job_id: int | None = None
    quantum: int | None = None
    position: int | None = None
    start_step: int | None = None
    fields: tuple[FieldDiff, ...] = ()
    detail: str = ""

    def describe(self) -> str:
        if self.kind == "job-set":
            return f"job-set mismatch: {self.detail}"
        if self.kind == "metadata":
            return f"trace metadata mismatch for job {self.job_id}: {self.detail}"
        where = (
            f"quantum {self.quantum} (start_step {self.start_step}) "
            f"job {self.job_id}"
        )
        if self.kind == "quantum-count":
            return f"first divergence at {where}: {self.detail}"
        return f"first divergence at {where}: " + "; ".join(
            str(f) for f in self.fields
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "quantum": self.quantum,
            "position": self.position,
            "start_step": self.start_step,
            "fields": [
                {"field": f.field, "expected": f.expected, "got": f.got}
                for f in self.fields
            ],
            "detail": self.detail,
            "summary": self.describe(),
        }


def _job_divergence(
    job_id: int,
    expected: JobTrace,
    got: JobTrace,
    horizon: int | None,
) -> TraceDivergence | None:
    """The earliest divergence within one job's pair of traces, if any."""
    if expected.quantum_length != got.quantum_length:
        return TraceDivergence(
            kind="metadata",
            job_id=job_id,
            detail=(
                f"quantum_length expected {expected.quantum_length} "
                f"got {got.quantum_length}"
            ),
        )
    if expected.release_time != got.release_time:
        return TraceDivergence(
            kind="metadata",
            job_id=job_id,
            detail=(
                f"release_time expected {expected.release_time} "
                f"got {got.release_time}"
            ),
        )
    exp_cols, got_cols = expected.columns, got.columns
    n_exp, n_got = len(exp_cols), len(got_cols)
    shared = min(n_exp, n_got)
    if horizon is not None:
        shared = min(shared, horizon)
    masks = [
        (name, _differs(getattr(exp_cols, name)[:shared], getattr(got_cols, name)[:shared]))
        for name in RECORD_FIELDS
    ]
    mismatch = np.logical_or.reduce([mask for _, mask in masks])
    if mismatch.any():
        pos = int(mismatch.argmax())
        return TraceDivergence(
            kind="field",
            job_id=job_id,
            quantum=int(exp_cols.index[pos]),
            position=pos,
            start_step=int(exp_cols.start_step[pos]),
            fields=tuple(
                FieldDiff(
                    field=name,
                    expected=getattr(exp_cols, name)[pos].item(),
                    got=getattr(got_cols, name)[pos].item(),
                )
                for name, mask in masks
                if mask[pos]
            ),
        )
    if n_exp != n_got and (horizon is None or shared < horizon):
        longer = exp_cols if n_exp > n_got else got_cols
        return TraceDivergence(
            kind="quantum-count",
            job_id=job_id,
            quantum=int(longer.index[shared]),
            position=shared,
            start_step=int(longer.start_step[shared]),
            detail=f"expected {n_exp} quanta, got {n_got}",
        )
    return None


def first_divergence(
    expected: Mapping[int, JobTrace],
    got: Mapping[int, JobTrace],
    *,
    horizon: int | None = None,
) -> TraceDivergence | None:
    """The globally-first divergence between two trace sets, or None.

    Per-job candidates are ordered by ``(start_step, job_id)`` — quanta are
    machine-wide and synchronized, so the earliest start step is the first
    moment the two executions differ.  ``horizon`` restricts the comparison
    to each job's first ``horizon`` records (the shrinker's comparison
    window); metadata and job-set mismatches are reported regardless.
    """
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing jobs {missing}")
        if extra:
            parts.append(f"unexpected jobs {extra}")
        return TraceDivergence(kind="job-set", detail=", ".join(parts))
    best: TraceDivergence | None = None
    best_key: tuple[int, int] | None = None
    for job_id in sorted(expected):
        candidate = _job_divergence(job_id, expected[job_id], got[job_id], horizon)
        if candidate is None:
            continue
        if candidate.kind == "metadata":
            return candidate
        assert candidate.start_step is not None and candidate.job_id is not None
        key = (candidate.start_step, candidate.job_id)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best
