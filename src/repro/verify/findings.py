"""Shared finding model for the ABG static-analysis passes.

The lint pass (:mod:`repro.verify.lint`, rules ``ABG1xx``, ``ABG290``,
``ABG311``, ``ABG313``) and the golden-trace replay harness
(:mod:`repro.goldens`, rules ``ABG4xx``) report the same
:class:`LintFinding` record, draw severities from the same registry, and
share one exit-code policy.

Suppression syntax
------------------

Two comment forms silence findings on their line:

- ``# noqa`` / ``# noqa: ABG102,ABG104`` — the legacy file-local form; a
  bare ``noqa`` silences every rule on the line.
- ``# abg: allow[ABG311] reason=<free text>`` — the justification-required
  form shared by every ABG rule.  The ``reason=`` clause is mandatory: an
  ``allow`` without a non-empty reason does **not** suppress anything and
  is itself reported as ``ABG290``.

Exit-code policy (shared by every entry point): ``0`` when no finding of
severity ``"error"`` exists, ``1`` otherwise, ``2`` on usage errors.
Every rule in :data:`RULES` is an ``"error"``; a ``"warning"`` finding is
reported but never flips the exit code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

__all__ = [
    "LintFinding",
    "LineSuppression",
    "RULES",
    "rule_severity",
    "line_suppression",
    "is_suppressed",
    "scan_suppressions",
    "findings_payload",
    "render_findings",
    "exit_code",
]

#: Every rule the lint or the golden harness can emit: code -> (severity,
#: one-line summary).
#: The long-form catalogue with paper anchors lives in docs/STATIC_ANALYSIS.md.
RULES: dict[str, tuple[str, str]] = {
    "ABG100": ("error", "source file does not parse"),
    "ABG101": ("error", "unseeded/global randomness (stdlib random, numpy global state)"),
    "ABG102": ("error", "exact ==/!= against a float literal"),
    "ABG103": ("error", "mutable default argument"),
    "ABG104": ("error", "iteration over a syntactic set display/call without sorted()"),
    "ABG105": ("error", "__all__ inconsistent with module definitions"),
    "ABG290": ("error", "`# abg: allow[...]` suppression without a reason= justification"),
    "ABG311": ("error", "indirect sort (argsort) without kind=\"stable\" in a kernel module"),
    "ABG313": ("error", "array constructor without an explicit dtype in a kernel module"),
    "ABG401": ("error", "golden trace diverged: field-level mismatch at a replayed quantum"),
    "ABG402": ("error", "golden trace diverged in shape: job set or quantum count mismatch"),
    "ABG403": ("error", "golden bundle unreadable: schema, digest, or metadata mismatch"),
    "ABG404": ("error", "golden fixture stale: re-recording from the current tree changes it"),
}


def rule_severity(code: str) -> str:
    """Severity tier of ``code`` (unknown codes default to ``"error"``)."""
    entry = RULES.get(code)
    return entry[0] if entry is not None else "error"


@dataclass(frozen=True, slots=True)
class LintFinding:
    """One rule violation at a source location.

    ``severity`` comes from :data:`RULES`.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


# -- suppression comments ----------------------------------------------------

_ALLOW_RE = re.compile(
    r"#\s*abg:\s*allow\[(?P<codes>[A-Za-z0-9_,\s]*)\]\s*(?:reason\s*=\s*(?P<reason>.*))?$"
)


@dataclass(frozen=True, slots=True)
class LineSuppression:
    """A suppression comment found on one line.

    ``codes`` empty means "every rule" (bare ``# noqa`` only);
    ``requires_reason`` marks the ``abg: allow`` form, which is inert
    unless ``reason`` is a non-empty string.
    """

    codes: frozenset[str] = frozenset()
    requires_reason: bool = False
    reason: str | None = None

    @property
    def effective(self) -> bool:
        return not self.requires_reason or bool(self.reason and self.reason.strip())


def line_suppression(source_lines: Sequence[str], line: int) -> LineSuppression | None:
    """The suppression comment on ``line`` (1-based), if any.

    Recognizes both the legacy ``# noqa[: CODES]`` form and the
    justification-required ``# abg: allow[CODES] reason=...`` form.
    """
    if not (1 <= line <= len(source_lines)):
        return None
    text = source_lines[line - 1]
    match = _ALLOW_RE.search(text)
    if match is not None:
        codes = frozenset(
            c.strip().upper() for c in match.group("codes").split(",") if c.strip()
        )
        return LineSuppression(
            codes=codes, requires_reason=True, reason=match.group("reason")
        )
    marker = text.find("# noqa")
    if marker < 0:
        return None
    rest = text[marker + len("# noqa") :].strip()
    if rest.startswith(":"):
        codes = frozenset(c.strip().upper() for c in rest[1:].split(",") if c.strip())
        return LineSuppression(codes=codes)
    return LineSuppression()


def is_suppressed(source_lines: Sequence[str], line: int, code: str) -> bool:
    """Whether an *effective* suppression on ``line`` covers ``code``."""
    sup = line_suppression(source_lines, line)
    if sup is None or not sup.effective:
        return False
    return not sup.codes or code.upper() in sup.codes


def scan_suppressions(source_lines: Sequence[str], path: str) -> list[LintFinding]:
    """``ABG290`` findings for every ``abg: allow`` comment lacking a reason."""
    findings: list[LintFinding] = []
    for lineno, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        reason = match.group("reason")
        if reason is None or not reason.strip():
            findings.append(
                LintFinding(
                    path=path,
                    line=lineno,
                    col=match.start(),
                    code="ABG290",
                    message="suppression without justification; write "
                    "`# abg: allow[CODE] reason=<why the rule is bent here>`",
                    severity=rule_severity("ABG290"),
                )
            )
    return findings


# -- unified report rendering ------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Totals:
    errors: int = 0
    warnings: int = 0


def _totals(findings: Iterable[LintFinding]) -> _Totals:
    errors = warnings = 0
    for f in findings:
        if f.severity == "warning":
            warnings += 1
        else:
            errors += 1
    return _Totals(errors=errors, warnings=warnings)


def findings_payload(findings: Sequence[LintFinding]) -> dict[str, Any]:
    """JSON-serializable unified report (the ``--format=json`` body)."""
    totals = _totals(findings)
    return {
        "schema": 2,
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "severity": f.severity,
                "message": f.message,
            }
            for f in findings
        ],
        "summary": {
            "total": len(findings),
            "errors": totals.errors,
            "warnings": totals.warnings,
        },
    }


def render_findings(findings: Sequence[LintFinding]) -> str:
    """Human-readable unified report: one line per finding plus a summary."""
    lines = [str(f) for f in findings]
    totals = _totals(findings)
    if findings:
        lines.append(f"{len(findings)} finding(s): {totals.errors} error(s), "
                     f"{totals.warnings} warning(s)")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def exit_code(findings: Sequence[LintFinding]) -> int:
    """The shared exit-code policy: 1 when any error-severity finding exists."""
    return 1 if any(f.severity != "warning" for f in findings) else 0
