"""Shared finding model and rule table for the ABG static-analysis passes.

The lint pass (:mod:`repro.verify.lint`, rules ``ABG1xx``, ``ABG290``,
``ABG311``, ``ABG313``) and the golden-trace replay harness
(:mod:`repro.goldens`, rules ``ABG4xx``) report the same
:class:`LintFinding` record and share one exit-code policy.
:data:`RULES` is the only description of the rules: ``python -m repro
lint --explain CODE`` formats it (:func:`explain`), and
docs/STATIC_ANALYSIS.md lists its codes and summaries.

Suppression
-----------

``# abg: allow[ABG311] reason=<free text>`` silences the named rules on
its line.  An ``allow`` suppresses nothing, and is itself reported as
``ABG290``, when its ``reason=`` is missing or empty, when it names no
code, or when it names a code missing from :data:`RULES`.

Exit-code policy (shared by every entry point): ``0`` when no finding
exists, ``1`` otherwise, ``2`` on usage errors.
"""

from __future__ import annotations

import io
import re
import textwrap
import tokenize
from dataclasses import dataclass
from typing import Any, Sequence

__all__ = [
    "LintFinding",
    "Rule",
    "RULES",
    "explain",
    "scan_suppressions",
    "findings_payload",
    "render_findings",
    "exit_code",
]


@dataclass(frozen=True, slots=True)
class Rule:
    """One rule's documentation.

    ``summary`` is the one-line description; ``hazard`` says what goes
    wrong when the rule is violated (with the paper or contract anchor);
    ``example`` is a minimal construct that fires the rule;
    ``suppression`` says when, if ever, bending the rule is justified.
    """

    summary: str
    hazard: str
    example: str
    suppression: str


#: Every rule the lint or the golden harness can emit.
RULES: dict[str, Rule] = {
    "ABG100": Rule(
        "source file does not parse",
        "A file that does not parse cannot be analyzed; every other check "
        "is void for it.",
        "def f(:",
        "Never suppress; fix the syntax error.",
    ),
    "ABG101": Rule(
        "unseeded/global randomness (stdlib random, numpy global state)",
        "Every reproduced figure is seeded from default_rng_seed; Section "
        "6's simulations are only comparable bit for bit if no ambient "
        "random state exists.  The stdlib random module and the legacy "
        "numpy.random.<fn>() functions draw from such state; every source "
        "of randomness must be an explicitly passed numpy.random.Generator "
        "(default_rng(seed) construction is allowed).",
        "import random\nrandom.shuffle(jobs)",
        "Only for code provably outside any result path, such as a demo "
        "script; the reason must say so.",
    ),
    "ABG102": Rule(
        "exact ==/!= against a float literal",
        "Controller state d(q) (Equation 3) and spans are accumulated "
        "floats; exact comparison against a float literal is a latent flake "
        "in the Theorem 3/4 bound checks.  Compare with a tolerance "
        "(math.isclose).",
        "if d == 0.5:\n    ...",
        "When the value is assigned verbatim, never computed (a sentinel): "
        "`# abg: allow[ABG102] reason=<where the value is assigned>`.",
    ),
    "ABG103": Rule(
        "mutable default argument",
        "A list/dict/set default aliases state across calls; policies must "
        "be stateless per quantum (Section 4's A-Control recurrence reads "
        "only A(q-1)).",
        "def run(jobs=[]):\n    ...",
        "Rarely justified; default to None and build the value in the body.",
    ),
    "ABG104": Rule(
        "iteration over a syntactic set display/call without sorted()",
        "Schedule order feeds the T1(q)/Tinf(q) accounting (Section 2), and "
        "set iteration order follows hash seeding, which varies per "
        "process; iterating a set display or set(...) call unsorted leaks "
        "process identity into results.",
        "for j in {a, b, c}:\n    ...",
        "When the loop body is order-free (pure membership accumulation): "
        "`# abg: allow[ABG104] reason=<why order cannot matter>`.",
    ),
    "ABG105": Rule(
        "`__all__` inconsistent with module definitions",
        "When a module declares __all__, every name in it must exist at "
        "module top level, and every public top-level function or class "
        "must be listed; otherwise the public API surface is unauditable.",
        "__all__ = ['gone']  # no `gone` defined",
        "Never suppress; fix the list.",
    ),
    "ABG290": Rule(
        "`# abg: allow[...]` without a reason= justification, or naming "
        "no known rule code",
        "Suppressions are part of the reviewed surface: one must say why the "
        "rule is deliberately bent, and name a live rule.  An allow with no "
        "reason, no code, or a code missing from the rule table suppresses "
        "nothing, so a suppression cannot outlive its rule or silence every "
        "rule on its line.",
        "if d == 0.5:  # abg: allow[ABG102]",
        "Not suppressible; add the reason= clause and name existing codes.",
    ),
    "ABG311": Rule(
        'indirect sort (argsort) without kind="stable" in a kernel module',
        "Tie order under the default introsort follows memory layout, so "
        "equal keys permute nondeterministically, and an indirect sort "
        "carries that tie order into results.  Test data may never produce "
        "the ties that expose it.  Plain value sorts are deterministic "
        "under any algorithm and are not flagged.",
        "order = np.argsort(keys)",
        "When the keys are provably distinct: "
        "`# abg: allow[ABG311] reason=<why ties cannot occur>`.",
    ),
    "ABG313": Rule(
        "array constructor without an explicit dtype in a kernel module",
        "np.arange/array/asarray/fromiter/full default integer results to "
        "the platform C long (32-bit on Windows), so index arithmetic "
        "widens differently across platforms, and CI runs on Linux only.  "
        "zeros/empty/ones default to float64 everywhere and are not flagged.",
        "idx = np.arange(n)",
        "For float-literal constructors, whose dtype is unambiguous: "
        "`# abg: allow[ABG313] reason=<why the dtype cannot vary>`; prefer "
        "writing dtype= anyway.",
    ),
    "ABG401": Rule(
        "golden trace diverged: field-level mismatch at a replayed quantum",
        "A replayed golden fixture produced different per-quantum values "
        "than its recorded reference run: a kernel or policy change altered "
        "scheduling behaviour.  The finding names the first diverging "
        "quantum and gives an expected/got diff per field.",
        "python -m repro verify-traces  # after perturbing the DEQ waterfall",
        "Not a source-comment rule.  If the new behaviour is intended, "
        "re-record the fixtures (`python -m repro record-traces`) in the "
        "same change and explain the semantic change.",
    ),
    "ABG402": Rule(
        "golden trace diverged in shape: job set or quantum count mismatch",
        "A replay diverged in shape: a job missing from the result, an "
        "unexpected extra job, or a job finishing after a different number "
        "of quanta.  Usually admission or termination logic drifted rather "
        "than per-quantum math.",
        "python -m repro verify-traces  # after changing release handling",
        "Not a source-comment rule; as for ABG401, re-record only if the "
        "shape change is intended.",
    ),
    "ABG403": Rule(
        "golden bundle unreadable: schema, digest, or metadata mismatch",
        "A golden fixture could not be replayed at all: unknown schema, "
        "malformed scenario or trace payload, a digest mismatch from a hand "
        "edit, or per-trace metadata disagreeing before any quantum was "
        "compared.",
        "python -m repro verify-traces  # after hand-editing a fixture JSON",
        "Not a source-comment rule; never edit fixture files by hand, "
        "regenerate them with `python -m repro record-traces`.",
    ),
    "ABG404": Rule(
        "golden fixture stale: re-recording from the current tree changes it",
        "Re-recording a committed fixture's stored scenario under the "
        "current tree gives a different digest, its stored scenario no "
        "longer matches the registry, or a registry scenario has no "
        "fixture: behaviour changed without re-recording.  CI runs "
        "`record-traces --check` so goldens cannot silently rot.",
        "python -m repro record-traces --check",
        "Not a source-comment rule; run `python -m repro record-traces`, "
        "which rewrites exactly the stale fixtures, and commit them with "
        "the behaviour change.",
    ),
}


def explain(code: str) -> str | None:
    """The ``lint --explain`` text for ``code`` (None if unknown)."""
    code = code.upper()
    rule = RULES.get(code)
    if rule is None:
        return None
    sections = (
        ("Hazard", rule.hazard),
        ("Example (fires the rule)", rule.example),
        ("Suppression", rule.suppression),
    )
    body = "".join(
        f"\n\n{title}:\n{textwrap.indent(text, '    ')}" for title, text in sections
    )
    return f"{code}: {rule.summary}{body}"


@dataclass(frozen=True, slots=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


# -- suppression comments ----------------------------------------------------

_ALLOW_RE = re.compile(
    r"#\s*abg:\s*allow\[(?P<codes>[^\]]*)\]\s*(?:reason\s*=\s*(?P<reason>.*))?$"
)


def scan_suppressions(
    source: str, path: str
) -> tuple[dict[int, frozenset[str]], list[LintFinding]]:
    """The effective ``# abg: allow`` comments of ``source``.

    Returns the rule codes each line suppresses, and an ``ABG290`` finding
    for every ``allow`` that suppresses nothing: no reason, no code, or a
    code missing from :data:`RULES`.  Only comment tokens count, so text
    inside string literals is never a suppression.
    """
    allowed: dict[int, frozenset[str]] = {}
    findings: list[LintFinding] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(tok.string)
        if match is None:
            continue
        codes = [c.strip().upper() for c in match.group("codes").split(",") if c.strip()]
        unknown = [c for c in codes if c not in RULES]
        if not (match.group("reason") or "").strip():
            problem = "suppression without justification"
        elif not codes:
            problem = "suppression names no rule code"
        elif unknown:
            problem = f"suppression names unknown rule code(s) {', '.join(unknown)}"
        else:
            allowed[tok.start[0]] = frozenset(codes)
            continue
        findings.append(
            LintFinding(
                path=path,
                line=tok.start[0],
                col=tok.start[1] + match.start(),
                code="ABG290",
                message=f"{problem}; write `# abg: allow[ABGnnn] "
                "reason=<why the rule is bent here>`",
            )
        )
    return allowed, findings


# -- unified report rendering ------------------------------------------------


def findings_payload(findings: Sequence[LintFinding]) -> dict[str, Any]:
    """JSON-serializable unified report (the ``--format=json`` body)."""
    return {
        "schema": 4,
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
            }
            for f in findings
        ],
        "summary": {"total": len(findings)},
    }


def render_findings(findings: Sequence[LintFinding]) -> str:
    """Human-readable unified report: one line per finding plus a summary."""
    lines = [str(f) for f in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def exit_code(findings: Sequence[LintFinding]) -> int:
    """The shared exit-code policy: 1 when any finding exists."""
    return 1 if findings else 0
