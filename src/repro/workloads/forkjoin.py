"""Fork-join workload generation (paper Section 7.1).

The paper evaluates the schedulers "on data-parallel jobs that have fork-join
structures, which alternate between serial and parallel phases", generating

- different *transition factors* by varying the parallelism of the parallel
  phases, and
- different work / critical-path lengths by varying the lengths of the serial
  and parallel phases.

The exact phase-length distributions are not given in the paper.  We draw
phase lengths uniformly from ranges proportional to the quantum length so
that full quanta fit inside single phases — the regime in which the job's
measured transition factor actually reaches the structural parallelism ratio
(a quantum straddling a phase boundary averages the two phases' parallelism
and softens the transition).  EXPERIMENTS.md records the chosen ranges.
"""

from __future__ import annotations

import numpy as np

from ..engine.phased import Phase, PhasedJob

__all__ = [
    "constant_parallelism_job",
    "fork_join_job",
    "ramped_job",
    "structural_transition_factor",
    "ForkJoinGenerator",
]


def constant_parallelism_job(width: int, levels: int) -> PhasedJob:
    """A single-phase job with constant parallelism ``width`` — the synthetic
    job of Figures 1 and 4."""
    return PhasedJob([Phase(width, levels)])


def fork_join_job(
    widths: list[int] | tuple[int, ...],
    serial_lengths: list[int] | tuple[int, ...],
    parallel_lengths: list[int] | tuple[int, ...],
) -> PhasedJob:
    """Alternate serial and parallel phases: serial[i] then parallel[i] of
    ``widths[i]`` chains, for each iteration ``i``."""
    if not (len(widths) == len(serial_lengths) == len(parallel_lengths)):
        raise ValueError("widths, serial_lengths, parallel_lengths must align")
    phases: list[Phase] = []
    for w, s, k in zip(widths, serial_lengths, parallel_lengths):
        phases.append(Phase(1, s))
        phases.append(Phase(w, k))
    return PhasedJob(phases)


def ramped_job(
    peak_width: int,
    *,
    ramp_factor: float = 2.0,
    levels_per_phase: int = 2000,
    peak_levels: int | None = None,
) -> PhasedJob:
    """A job whose parallelism ramps up geometrically (1, f, f^2, ..., peak)
    and back down — high average parallelism with a *small* transition factor
    of about ``ramp_factor``.

    Fork-join jobs have ``CL`` comparable to their peak width (a serial phase
    sits next to a parallel one), which makes Theorem 3's trim amount
    ``O(CL * Tinf)`` swallow the whole execution.  Ramped jobs are the regime
    where the theorem's nearly-linear-speedup statement is informative, so
    the bound-checking experiments use them.
    """
    if peak_width < 1:
        raise ValueError("peak width must be >= 1")
    if ramp_factor <= 1.0:
        raise ValueError("ramp factor must exceed 1")
    if levels_per_phase < 1:
        raise ValueError("levels per phase must be >= 1")
    up: list[int] = []
    w = 1.0
    while round(w) < peak_width:
        up.append(int(round(w)))
        w *= ramp_factor
    phases = [Phase(width, levels_per_phase) for width in up]
    phases.append(Phase(peak_width, peak_levels or levels_per_phase))
    phases.extend(Phase(width, levels_per_phase) for width in reversed(up))
    return PhasedJob(phases)


def structural_transition_factor(job: PhasedJob) -> float:
    """The worst-case transition factor of a phased job: the maximal
    parallelism ratio between adjacent phases, including the initial
    ``A(0) = 1`` transition.

    This is the ``CL`` a schedule exhibits when full quanta align inside
    phases (footnote 2 of the paper: the transition factor "can usually be
    derived based on the worst case schedule"); the measured value can be
    smaller when quanta straddle phase boundaries.
    """
    widths = [p.width for p in job.phases]
    c = float(widths[0])  # vs A(0) = 1
    for a, b in zip(widths, widths[1:]):
        c = max(c, a / b, b / a)
    return max(c, 1.0)


class ForkJoinGenerator:
    """Random fork-join jobs with a prescribed transition factor.

    Parameters
    ----------
    quantum_length:
        The machine's ``L``; phase-length ranges scale with it.
    iterations:
        Inclusive range for the number of serial+parallel iterations.
    serial_levels:
        Inclusive range of serial-phase lengths, in units of ``L``.
    parallel_levels:
        Inclusive range of parallel-phase lengths (levels), in units of ``L``.
    """

    def __init__(
        self,
        quantum_length: int = 1000,
        *,
        iterations: tuple[int, int] = (3, 6),
        serial_levels: tuple[float, float] = (1.5, 3.0),
        parallel_levels: tuple[float, float] = (1.5, 3.0),
    ):
        if quantum_length < 1:
            raise ValueError("quantum length must be >= 1")
        if iterations[0] < 1 or iterations[0] > iterations[1]:
            raise ValueError("invalid iterations range")
        for lo, hi in (serial_levels, parallel_levels):
            if lo <= 0 or lo > hi:
                raise ValueError("phase-length ranges must be positive and ordered")
        self.quantum_length = int(quantum_length)
        self.iterations = iterations
        self.serial_levels = serial_levels
        self.parallel_levels = parallel_levels

    def generate(self, rng: np.random.Generator, transition_factor: int) -> PhasedJob:
        """One random job whose parallel phases have ``transition_factor``
        chains (so its structural transition factor equals it)."""
        if transition_factor < 1:
            raise ValueError("transition factor must be >= 1")
        L = self.quantum_length
        iters = int(rng.integers(self.iterations[0], self.iterations[1] + 1))
        widths = [int(transition_factor)] * iters
        serial = [
            int(rng.integers(round(self.serial_levels[0] * L), round(self.serial_levels[1] * L) + 1))
            for _ in range(iters)
        ]
        parallel = [
            int(
                rng.integers(
                    round(self.parallel_levels[0] * L), round(self.parallel_levels[1] * L) + 1
                )
            )
            for _ in range(iters)
        ]
        return fork_join_job(widths, serial, parallel)

    def generate_batch(
        self, rng: np.random.Generator, transition_factor: int, count: int
    ) -> list[PhasedJob]:
        return [self.generate(rng, transition_factor) for _ in range(count)]
