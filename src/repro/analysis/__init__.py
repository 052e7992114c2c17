"""Algorithmic analysis: trim analysis, transition factors, and the paper's
theorem bounds evaluated on measured traces."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .characteristics import ParallelismCharacteristics, job_structure_characteristics
    from .bounds import (
        Lemma2Report,
        Theorem3Report,
        check_lemma2,
        lemma2_coefficients,
        theorem3_time_bound,
        theorem3_trim_steps,
        theorem4_waste_bound,
        theorem5_makespan_bound,
        theorem5_response_bound,
    )
    from .transition import job_set_transition_factor, measured_transition_factor
    from .speedup import SpeedupReport, speedup_report
    from .trim import QuantumClasses, classify_quanta, trimmed_availability

__all__ = [
    "ParallelismCharacteristics",
    "job_structure_characteristics",
    "SpeedupReport",
    "speedup_report",
    "QuantumClasses",
    "classify_quanta",
    "trimmed_availability",
    "measured_transition_factor",
    "job_set_transition_factor",
    "lemma2_coefficients",
    "check_lemma2",
    "Lemma2Report",
    "theorem3_trim_steps",
    "theorem3_time_bound",
    "Theorem3Report",
    "theorem4_waste_bound",
    "theorem5_makespan_bound",
    "theorem5_response_bound",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".characteristics": ("ParallelismCharacteristics", "job_structure_characteristics"),
        ".bounds": (
            "Lemma2Report", "Theorem3Report", "check_lemma2", "lemma2_coefficients",
            "theorem3_time_bound", "theorem3_trim_steps", "theorem4_waste_bound",
            "theorem5_makespan_bound", "theorem5_response_bound",
        ),
        ".transition": ("job_set_transition_factor", "measured_transition_factor"),
        ".speedup": ("SpeedupReport", "speedup_report"),
        ".trim": ("QuantumClasses", "classify_quanta", "trimmed_availability"),
    },
)
