"""Long-form rule catalogue backing ``python -m repro lint --explain``.

:data:`repro.verify.findings.RULES` is the machine registry (code ->
severity + one-line summary); this module is the *human* registry: per
rule, the hazard it guards against, a minimal example that fires it, and
what a justified suppression looks like.  ``docs/STATIC_ANALYSIS.md``
renders the same material as prose — ``tests/test_verify_lint.py``
checks that every code in :data:`RULES` has a catalogue entry and that
every catalogue code is mentioned in the doc, so the three surfaces
cannot drift silently.

Usage::

    python -m repro lint --explain ABG311
    from repro.verify.catalogue import CATALOGUE, explain
"""

from __future__ import annotations

from dataclasses import dataclass

from .findings import RULES, rule_severity

__all__ = ["RuleEntry", "CATALOGUE", "explain"]


@dataclass(frozen=True, slots=True)
class RuleEntry:
    """One rule's long-form documentation.

    ``description`` restates the one-liner from :data:`RULES`;
    ``hazard`` says what goes wrong when the rule is violated (with the
    paper/contract anchor); ``example`` is a minimal construct that
    fires the rule; ``suppression`` says when — if ever — an
    ``# abg: allow[...]`` is justified and what the reason should state.
    """

    code: str
    description: str
    hazard: str
    example: str
    suppression: str


def _entry(code: str, hazard: str, example: str, suppression: str) -> RuleEntry:
    return RuleEntry(
        code=code,
        description=RULES[code][1],
        hazard=hazard,
        example=example,
        suppression=suppression,
    )


#: code -> long-form entry, one per rule in :data:`RULES`.
CATALOGUE: dict[str, RuleEntry] = {
    e.code: e
    for e in (
        _entry(
            "ABG100",
            "A file that does not parse cannot be analyzed; every other "
            "guarantee is void for it.",
            "def f(:  # SyntaxError",
            "Never suppress; fix the syntax error.",
        ),
        _entry(
            "ABG101",
            "Every reproduced figure is seeded from default_rng_seed; "
            "ambient RNG state (stdlib random, np.random.*) makes runs "
            "incomparable bit-for-bit.",
            "import random; random.shuffle(jobs)",
            "Only for code provably outside any result path (e.g. a "
            "demo script); state that in the reason.",
        ),
        _entry(
            "ABG102",
            "Controller state d(q) and spans are accumulated floats; "
            "exact ==/!= against a float literal is a latent flake in "
            "the Theorem 3/4 bound checks.",
            "if d == 0.5: ...",
            "Acceptable when the value is assigned-not-computed (a "
            "sentinel); say so in the reason.",
        ),
        _entry(
            "ABG103",
            "A mutable default aliases state across calls; policies "
            "must be stateless per quantum (the A-Control recurrence "
            "reads only A(q-1)).",
            "def run(jobs=[]): ...",
            "Rarely justified; use None + in-body construction instead.",
        ),
        _entry(
            "ABG104",
            "Schedule order feeds T1(q)/Tinf(q) accounting; hash order "
            "varies per process, so iterating a set display unsorted "
            "leaks process identity into results.",
            "for j in {a, b, c}: ...",
            "Acceptable when the loop body is order-free (pure "
            "membership accumulation); the reason must say why order "
            "cannot matter.",
        ),
        _entry(
            "ABG105",
            "An __all__ out of sync with the module's definitions makes "
            "the public API surface unauditable.",
            "__all__ = ['gone']  # no `gone` defined",
            "Never suppress; fix the list.",
        ),
        _entry(
            "ABG290",
            "Suppressions are part of the reviewed surface; one without "
            "a justification is itself a finding.",
            "if d == 0.5:  # abg: allow[ABG102]",
            "Not suppressible; add the reason= clause.",
        ),
        _entry(
            "ABG311",
            "Tie order under the default introsort follows memory "
            "layout; equal keys permute nondeterministically, and "
            "indirect sorts carry that tie order into results.  Test "
            "data may never produce the ties that expose it.",
            "order = np.argsort(keys)",
            "Acceptable when keys are provably distinct; the reason "
            "must say why ties cannot occur.",
        ),
        _entry(
            "ABG313",
            "Integer array constructors default to the platform C long "
            "(32-bit on Windows), so index arithmetic widens "
            "differently across platforms, and CI runs on Linux only.",
            "idx = np.arange(n)  # kernel module",
            "Acceptable for float-literal constructors where the dtype "
            "is unambiguous; prefer writing dtype= anyway.",
        ),
        _entry(
            "ABG401",
            "A replayed golden fixture produced different per-quantum "
            "values than its recorded reference run: a kernel or policy "
            "change altered scheduling behaviour.  The finding carries "
            "the first diverging quantum and a field-level expected/got "
            "diff — the regression's exact birthplace.",
            "python -m repro verify-traces  # after perturbing the DEQ waterfall",
            "Not a source-comment rule; if the new behaviour is intended, "
            "re-record the fixtures (`python -m repro record-traces`) in "
            "the same PR and explain the semantic change.",
        ),
        _entry(
            "ABG402",
            "A replay diverged in *shape*: a job missing from the result, "
            "an unexpected extra job, or a job finishing after a "
            "different number of quanta — usually admission or "
            "termination logic drifting rather than per-quantum math.",
            "python -m repro verify-traces  # after changing release handling",
            "Not a source-comment rule; same recourse as ABG401 — "
            "re-record only if the shape change is intended.",
        ),
        _entry(
            "ABG403",
            "A golden fixture could not be replayed at all: unknown "
            "schema, malformed scenario/trace payload, digest mismatch "
            "(hand-edited without re-recording), or per-trace metadata "
            "disagreeing before any quantum was compared.",
            "python -m repro verify-traces  # after hand-editing a fixture JSON",
            "Not a source-comment rule; never edit fixture files by "
            "hand — regenerate them with `record-traces`.",
        ),
        _entry(
            "ABG404",
            "Fixture freshness: re-recording a committed fixture's "
            "stored scenario under the current tree yields a different "
            "digest, i.e. behaviour changed but the fixture was not "
            "re-recorded (or a registry scenario has no fixture).  CI "
            "runs `record-traces --check` so goldens cannot silently "
            "rot.",
            "python -m repro record-traces --check",
            "Not a source-comment rule; run `python -m repro "
            "record-traces` and commit the refreshed fixtures with the "
            "behaviour change.",
        ),
    )
}


def explain(code: str) -> str | None:
    """The formatted ``--explain`` body for ``code`` (None if unknown)."""
    entry = CATALOGUE.get(code.upper())
    if entry is None:
        return None
    severity = rule_severity(entry.code)
    example = "\n".join(f"    {line}" for line in entry.example.splitlines())
    return (
        f"{entry.code} ({severity}): {entry.description}\n"
        f"\n"
        f"Hazard:\n"
        f"    {entry.hazard}\n"
        f"\n"
        f"Example (fires the rule):\n"
        f"{example}\n"
        f"\n"
        f"Suppression guidance:\n"
        f"    {entry.suppression}\n"
        f"\n"
        f"Suppress with `# abg: allow[{entry.code}] reason=<why>` — the\n"
        f"reason clause is mandatory (ABG290).  Full catalogue:\n"
        f"docs/STATIC_ANALYSIS.md."
    )
