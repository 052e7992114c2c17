"""Discrete-time first-order closed-loop model of ABG (paper Section 4).

With a job of constant average parallelism ``A``, ABG's loop (Figure 3)
consists of the integral controller ``G(z) = K / (z - 1)`` and the B-Greedy
"plant" ``S(z) = 1 / A``, closing to the first-order system

    T(z) = Y(z)/R(z) = (K/A) / (z - (1 - K/A)),

a single pole at ``p0 = 1 - K/A``.  This module gives the closed loop both as
a transfer-function object (pole, dc gain, impulse/step responses) and as the
time-domain recurrence actually executed, so the control-theoretic analysis
in :mod:`repro.control.analysis` can be checked against simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FirstOrderLoop"]


@dataclass(frozen=True, slots=True)
class FirstOrderLoop:
    """ABG's closed loop for a constant-parallelism job.

    Parameters
    ----------
    parallelism:
        The job's constant average parallelism ``A > 0``.
    gain:
        The controller gain ``K``; Theorem 1 sets ``K = (1 - r) * A``.
    """

    parallelism: float
    gain: float

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")

    # -- z-domain quantities ------------------------------------------------

    @property
    def pole(self) -> float:
        """``p0 = 1 - K/A``; the system is BIBO stable iff ``|p0| < 1``."""
        return 1.0 - self.gain / self.parallelism

    @property
    def is_bibo_stable(self) -> bool:
        return abs(self.pole) < 1.0

    @property
    def dc_gain(self) -> float:
        """Steady-state output for a unit-step reference, ``T(1)``.

        For the stable loop this is always 1 (zero steady-state error): the
        request converges to the parallelism."""
        denom = 1.0 - self.pole
        # The dc gain is genuinely infinite only at an exactly-unit pole
        # (gain == 0); a near-unit pole has a finite, meaningful dc gain.
        if denom == 0.0:  # abg: allow[ABG102] reason=only an exactly-unit pole is singular
            return float("inf")
        return (self.gain / self.parallelism) / denom

    def transfer(self, z: complex) -> complex:
        """Evaluate ``T(z)``."""
        return (self.gain / self.parallelism) / (z - self.pole)

    # -- time domain ---------------------------------------------------------

    def request_response(self, num_quanta: int, d1: float = 1.0) -> np.ndarray:
        """The request sequence ``d(1..n)`` under the control law
        ``d(q+1) = d(q) + K * (1 - d(q)/A)`` from initial request ``d1``.

        This is the closed-form geometric approach to ``A``:
        ``d(q) = A + p0^(q-1) * (d1 - A)``.
        """
        if num_quanta < 1:
            raise ValueError("need at least one quantum")
        q = np.arange(num_quanta, dtype=np.float64)
        return self.parallelism + (self.pole**q) * (d1 - self.parallelism)

    def output_step_response(self, num_quanta: int, d1: float = 1.0) -> np.ndarray:
        """Normalized output ``y(q) = d(q)/A`` for the unit-step reference."""
        return self.request_response(num_quanta, d1) / self.parallelism

    def simulate_requests(self, num_quanta: int, d1: float = 1.0) -> np.ndarray:
        """Same sequence computed by literally iterating the recurrence —
        used in tests to confirm the closed form."""
        if num_quanta < 1:
            raise ValueError("need at least one quantum")
        out = np.empty(num_quanta, dtype=np.float64)
        d = float(d1)
        for i in range(num_quanta):
            out[i] = d
            d = d + self.gain * (1.0 - d / self.parallelism)
        return out
