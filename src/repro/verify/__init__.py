"""Static-analysis and verification layer.

Two mechanically-checkable guarantees back this reproduction:

- the **invariant auditor** (:mod:`repro.verify.auditor`) replays recorded
  traces against the paper's model invariants — conservative allocation,
  greedy non-idling, exact ``A(q)`` accounting, DAG precedence, the
  A-Control recurrence, DEQ fairness, and the Theorem 3/4 bounds — and
  reports structured violations;
- the **lint pass** (:mod:`repro.verify.lint`, ``python -m repro lint``)
  enforces repo-specific determinism rules (no unseeded randomness, no
  float equality, no hash-order iteration, ``__all__`` consistency) over
  the source tree, plus two numeric rules on the array-kernel modules
  (stable ``argsort``, explicit ``dtype=``) that tests cannot reliably
  reach.

See docs/ARCHITECTURE.md ("Verification layer") for the invariant-to-theorem
map, and CONTRIBUTING.md for how to run both locally.

All exports resolve lazily: the engines import
:mod:`repro.verify.violations` for their strict mode, so this package
``__init__`` must not (transitively) import the engines back, and
``python -m repro.verify.lint`` must not import the audit stack at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .auditor import (
        TraceExpectations,
        audit_dag_schedule,
        audit_multi_result,
        audit_trace,
    )
    from .findings import exit_code, findings_payload, render_findings
    from .lint import LintFinding, check_file, check_source, lint_paths
    from .scenarios import (
        AuditScenario,
        audit_scenarios,
        format_suite,
        run_audit_suite,
    )
    from .violations import AuditReport, InvariantError, Violation, merge_reports

__all__ = [
    "AuditReport",
    "AuditScenario",
    "InvariantError",
    "LintFinding",
    "TraceExpectations",
    "Violation",
    "audit_dag_schedule",
    "audit_multi_result",
    "audit_scenarios",
    "audit_trace",
    "check_file",
    "check_source",
    "exit_code",
    "findings_payload",
    "format_suite",
    "lint_paths",
    "merge_reports",
    "render_findings",
    "run_audit_suite",
]

_EXPORT_MODULE = {
    "AuditReport": "violations",
    "InvariantError": "violations",
    "Violation": "violations",
    "merge_reports": "violations",
    "TraceExpectations": "auditor",
    "audit_dag_schedule": "auditor",
    "audit_multi_result": "auditor",
    "audit_trace": "auditor",
    "AuditScenario": "scenarios",
    "audit_scenarios": "scenarios",
    "format_suite": "scenarios",
    "run_audit_suite": "scenarios",
    "LintFinding": "lint",
    "check_file": "lint",
    "check_source": "lint",
    "lint_paths": "lint",
    "exit_code": "findings",
    "findings_payload": "findings",
    "render_findings": "findings",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORT_MODULE.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(__all__)
