"""Core of the reproduction: per-quantum records, feedback policies, and
quantum-length policies.

``AControl`` + breadth-first execution = ABG; ``AGreedy`` + greedy execution
is the paper's baseline.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .abg import AControl
    from .agreedy import AGreedy
    from .feedback import FeedbackPolicy
    from .overhead import NO_OVERHEAD, ReallocationOverhead
    from .quantum_policy import AdaptiveQuantumLength, FixedQuantumLength, QuantumLengthPolicy
    from .reference import FixedRequest, OracleFeedback
    from .types import JobTrace, QuantumRecord, integer_request, transition_factor_of_series

__all__ = [
    "AControl",
    "AGreedy",
    "FeedbackPolicy",
    "ReallocationOverhead",
    "NO_OVERHEAD",
    "FixedRequest",
    "OracleFeedback",
    "QuantumRecord",
    "JobTrace",
    "integer_request",
    "transition_factor_of_series",
    "QuantumLengthPolicy",
    "FixedQuantumLength",
    "AdaptiveQuantumLength",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".abg": ("AControl",),
        ".agreedy": ("AGreedy",),
        ".feedback": ("FeedbackPolicy",),
        ".overhead": ("NO_OVERHEAD", "ReallocationOverhead"),
        ".quantum_policy": ("AdaptiveQuantumLength", "FixedQuantumLength", "QuantumLengthPolicy"),
        ".reference": ("FixedRequest", "OracleFeedback"),
        ".types": ("JobTrace", "QuantumRecord", "integer_request", "transition_factor_of_series"),
    },
)
