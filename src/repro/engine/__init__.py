"""Execution engines: the step-accurate explicit-dag reference engine and
the closed-form fork-join (phased) engine, which also runs counts-determined
dags over their segments (the batched dag executor)."""

from .base import JobExecutor, QuantumExecution
from .batched import BatchedDagExecutor, UnsupportedDagStructure, supports_batched
from .explicit import Discipline, ExplicitExecutor
from .phased import Phase, PhasedExecutor, PhasedJob

__all__ = [
    "JobExecutor",
    "QuantumExecution",
    "ExplicitExecutor",
    "BatchedDagExecutor",
    "UnsupportedDagStructure",
    "supports_batched",
    "Discipline",
    "Phase",
    "PhasedJob",
    "PhasedExecutor",
]
