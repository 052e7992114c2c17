"""Structural analysis of dag jobs.

Computes the intrinsic job characteristics the paper's analysis is phrased
in: work ``T1``, critical-path length ``Tinf``, average parallelism, and the
level-by-level parallelism profile.  The *transition factor* ``CL`` depends on
the quantum length as well as the dag (Section 5.2, footnote 2); the
trace-based measurement lives in :mod:`repro.analysis.transition` and the
structural estimate for fork-join jobs in
:func:`repro.workloads.forkjoin.structural_transition_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Dag

__all__ = ["JobCharacteristics", "characteristics"]


@dataclass(frozen=True, slots=True)
class JobCharacteristics:
    """The intrinsic characteristics the paper's bounds are written in."""

    work: int
    span: int
    average_parallelism: float
    max_level_width: int
    min_level_width: int

    def __str__(self) -> str:
        return (
            f"T1={self.work} Tinf={self.span} "
            f"A={self.average_parallelism:.2f} "
            f"width=[{self.min_level_width}, {self.max_level_width}]"
        )


def characteristics(dag: Dag) -> JobCharacteristics:
    """Summarize a dag's intrinsic characteristics."""
    profile = dag.parallelism_profile()
    return JobCharacteristics(
        work=dag.work,
        span=dag.span,
        average_parallelism=dag.average_parallelism,
        max_level_width=int(profile.max()),
        min_level_width=int(profile.min()),
    )
