"""Fault-tolerant experiment runtime.

The resilience layer under every fan-out path in the repo:

- :mod:`repro.runtime.atomic` — crash-safe artifact writes
  (temp + fsync + rename);
- :mod:`repro.runtime.checkpoint` — content-addressed completion journal
  enabling ``repro all --resume``;
- :mod:`repro.runtime.faults` — deterministic, seeded fault injection
  (crash / hang / transient) for tests and the CI chaos job;
- :mod:`repro.runtime.supervisor` — the supervised process pool with
  per-task timeouts, bounded retries, deterministic backoff, and graceful
  degradation to serial execution.

See ``docs/RESILIENCE.md`` for the failure model and the determinism
argument.
"""

from .atomic import write_atomic
from .checkpoint import CheckpointJournal, stable_fraction, unit_key
from .faults import FAULT_KINDS, FAULTS_ENV_VAR, FaultPlan, TransientFault
from .supervisor import (
    RetryPolicy,
    SupervisedOutcome,
    TaskError,
    resolve_workers,
    run_supervised,
)

__all__ = [
    "CheckpointJournal",
    "FAULT_KINDS",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "RetryPolicy",
    "SupervisedOutcome",
    "TaskError",
    "TransientFault",
    "resolve_workers",
    "run_supervised",
    "stable_fraction",
    "unit_key",
    "write_atomic",
]
