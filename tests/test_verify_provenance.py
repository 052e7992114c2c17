"""Tests for the buffer-provenance pass (flow v3): rules ABG341–ABG344.

Golden fixtures per rule (a minimal positive plus the idiomatic negative),
the property-chain root resolution (``self.rem`` → the getter's
``self._arena.rem``), the ABG344-over-ABG343 precedence on buffers that
are both mutated and reallocated, the rule catalogue / ``--explain``
surface, the summary-cache schema bump (stale v2 caches are discarded),
and the seeded-mutation acceptance checks from the issue: reverting the
``set_layout`` snapshot to ``np.asarray`` and dropping the
``append_quantum`` request copy must each surface the expected ABG34x
finding at the *caller* in ``sim/multi.py`` via
``python -m repro lint --deep --format=json``.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.verify.catalogue import CATALOGUE, explain
from repro.verify.findings import RULES
from repro.verify.flow import SummaryCache, analyze_paths

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
DOC_PATH = REPO_SRC.parent.parent / "docs" / "STATIC_ANALYSIS.md"


def provenance_findings_for(tmp_path: Path, source: str):
    """Analyze one synthetic module with only the provenance rules live."""
    target = tmp_path / "m.py"
    target.write_text(textwrap.dedent(source))
    report = analyze_paths(
        [target], root_patterns=(), kernel_patterns=(), parity_contracts=()
    )
    return report.findings


def codes_of(findings) -> list[str]:
    return [f.code for f in findings]


class TestABG341:
    CALLEE = """\
        import numpy as np

        class Log:
            def __init__(self):
                self._layouts = []

            def set_layout(self, jids):
                self._layouts.append(np.{ctor}(jids, dtype=np.int64))

        class Kern:
            def __init__(self, n):
                self.jids = np.zeros(n, dtype=np.int64)

            def admit(self, i, j):
                self.jids[i] = j

        def run(n):
            kern = Kern(n)
            log = Log()
            for i in range(n):
                kern.admit(i, i + 1)
                log.set_layout(kern.jids)
            return log
    """

    def test_alias_into_storing_callee(self, tmp_path):
        findings = provenance_findings_for(
            tmp_path, self.CALLEE.format(ctor="asarray")
        )
        assert codes_of(findings) == ["ABG341"]
        (finding,) = findings
        assert "Kern.jids" in finding.message
        assert "set_layout" in finding.message
        # fires at the caller's call site, not inside the callee
        assert "log.set_layout(kern.jids)" in Path(finding.path).read_text().splitlines()[
            finding.line - 1
        ]

    def test_callee_copy_is_clean(self, tmp_path):
        findings = provenance_findings_for(
            tmp_path, self.CALLEE.format(ctor="array")
        )
        assert codes_of(findings) == []


class TestABG342:
    def test_local_out_aliases_input_root(self, tmp_path):
        findings = provenance_findings_for(
            tmp_path,
            """\
            import numpy as np

            class K:
                def __init__(self, n):
                    self.work = np.zeros(n, dtype=np.float64)
                    self.out = np.zeros(n, dtype=np.float64)

                def bad(self):
                    w = self.work
                    np.add(w, 1.0, out=self.work)

                def good(self):
                    w = self.work
                    np.add(w, 1.0, out=self.out)
            """,
        )
        assert codes_of(findings) == ["ABG342"]
        assert "self.work" in findings[0].message

    def test_call_boundary_same_buffer_both_sides(self, tmp_path):
        findings = provenance_findings_for(
            tmp_path,
            """\
            import numpy as np

            def scale(src, dst):
                np.multiply(src, 2.0, out=dst)

            class K:
                def __init__(self, n):
                    self.work = np.zeros(n, dtype=np.float64)
                    self.frame = np.zeros(n, dtype=np.float64)

                def bad(self):
                    scale(self.work, self.work)

                def good(self):
                    scale(self.work, self.frame)
            """,
        )
        assert codes_of(findings) == ["ABG342"]
        finding = findings[0]
        assert "scale" in finding.message
        assert "'dst'" in finding.message and "'src'" in finding.message


class TestABG343:
    BORROW = """\
        import numpy as np

        class Ring:
            def __init__(self, n):
                self.buf = np.zeros(n, dtype=np.float64)

            def write(self, i, x):
                self.buf[i] = x

            def borrow(self, n):
                self.snap = self.buf[:n]{suffix}
    """

    def test_stored_view_of_mutated_buffer(self, tmp_path):
        findings = provenance_findings_for(tmp_path, self.BORROW.format(suffix=""))
        assert codes_of(findings) == ["ABG343"]
        assert "Ring.buf" in findings[0].message
        assert "self.snap" in findings[0].message

    def test_stored_copy_is_clean(self, tmp_path):
        findings = provenance_findings_for(
            tmp_path, self.BORROW.format(suffix=".copy()")
        )
        assert codes_of(findings) == []

    def test_suppression_with_reason_silences(self, tmp_path):
        findings = provenance_findings_for(
            tmp_path,
            self.BORROW.format(
                suffix="  # abg: allow[ABG343] reason=live window by design"
            ),
        )
        assert "ABG343" not in codes_of(findings)

    def test_property_chain_resolves_to_owning_class(self, tmp_path):
        # self.rem is a property view of self._arena.rem: both the write
        # (through the alias) and the borrow must resolve onto Arena.rem
        findings = provenance_findings_for(
            tmp_path,
            """\
            import numpy as np

            class Arena:
                def __init__(self, n):
                    self.rem = np.zeros(n, dtype=np.int64)

            class Kernel:
                def __init__(self, n):
                    self._arena = Arena(n)
                    self.n = n

                @property
                def rem(self):
                    return self._arena.rem[: self.n]

                def consume(self, x):
                    self.rem[0] = x

                def borrow(self):
                    self.keep = self.rem
            """,
        )
        assert codes_of(findings) == ["ABG343"]
        assert "Arena.rem" in findings[0].message


class TestABG344:
    def test_realloc_takes_precedence_over_mutation(self, tmp_path):
        # slots is both written in place and rebound to a fresh array:
        # the dangling-view hazard (ABG344) subsumes write-after-borrow
        findings = provenance_findings_for(
            tmp_path,
            """\
            import numpy as np

            class Arena:
                def __init__(self):
                    self.slots = np.zeros(8, dtype=np.float64)

                def fill(self, i, x):
                    self.slots[i] = x

                def grow(self):
                    self.slots = np.zeros(self.slots.size * 2, dtype=np.float64)

                def borrow(self, n):
                    self.window = self.slots[:n]
            """,
        )
        assert codes_of(findings) == ["ABG344"]
        assert "Arena.slots" in findings[0].message
        assert "doubling" in findings[0].message

    def test_copy_across_realloc_is_clean(self, tmp_path):
        findings = provenance_findings_for(
            tmp_path,
            """\
            import numpy as np

            class Arena:
                def __init__(self):
                    self.slots = np.zeros(8, dtype=np.float64)

                def grow(self):
                    self.slots = np.zeros(self.slots.size * 2, dtype=np.float64)

                def borrow(self, n):
                    self.window = self.slots[:n].copy()
            """,
        )
        assert codes_of(findings) == []


class TestCacheSchemaBump:
    def test_schema_is_v3(self):
        from repro.verify.flow.cache import _SCHEMA

        assert _SCHEMA == 5

    def test_stale_v2_schema_cache_is_discarded(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("def f() -> int:\n    return 1\n")
        cache_path = tmp_path / "cache.json"
        analyze_paths([target], root_patterns=(), cache=SummaryCache(cache_path))
        data = json.loads(cache_path.read_text())
        assert data["schema"] == 5

        # a v2 (schema 4) cache file — as left behind by the previous
        # analyzer — must be treated as empty, not served
        data["schema"] = 4
        cache_path.write_text(json.dumps(data))
        report = analyze_paths(
            [target], root_patterns=(), cache=SummaryCache(cache_path)
        )
        assert report.stats["cache_hits"] == 0
        assert report.stats["cache_misses"] == 1

    def test_fresh_cache_round_trips_provenance_facts(self, tmp_path):
        # second run from cache must reproduce the same findings: the
        # points-to facts survive serialization
        target = tmp_path / "m.py"
        target.write_text(
            textwrap.dedent(TestABG343.BORROW.format(suffix=""))
        )
        cache_path = tmp_path / "cache.json"
        first = analyze_paths(
            [target], root_patterns=(), cache=SummaryCache(cache_path)
        )
        second = analyze_paths(
            [target], root_patterns=(), cache=SummaryCache(cache_path)
        )
        assert second.stats["cache_hits"] == 1
        assert codes_of(first.findings) == codes_of(second.findings) == ["ABG343"]


class TestCatalogue:
    def test_registry_covers_every_rule(self):
        assert set(CATALOGUE) == set(RULES)

    def test_descriptions_track_the_rule_registry(self):
        for code, entry in CATALOGUE.items():
            assert entry.description == RULES[code][1]
            assert entry.hazard and entry.example and entry.suppression

    def test_doc_mentions_every_code(self):
        text = DOC_PATH.read_text()
        for code in RULES:
            assert code in text, f"{code} missing from docs/STATIC_ANALYSIS.md"

    def test_explain_formats_an_entry(self):
        text = explain("ABG344")
        assert text is not None
        assert "ABG344" in text and "doubling" in text
        assert "abg: allow[ABG344]" in text

    def test_explain_unknown_code_is_none(self):
        assert explain("ABG999") is None

    def test_explain_cli(self, capsys):
        assert cli_main(["lint", "--explain", "abg341"]) == 0
        out = capsys.readouterr().out
        assert "ABG341" in out and "Suppression guidance" in out

    def test_explain_cli_unknown_code_fails(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["lint", "--explain", "ABG999"])


def _copy_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "repro"
    shutil.copytree(REPO_SRC, tree)
    return tree


def _mutate(tree: Path, rel: str, old: str, new: str) -> Path:
    target = tree / rel
    source = target.read_text()
    assert source.count(old) == 1, f"mutation anchor not unique in {rel}"
    target.write_text(source.replace(old, new))
    return target


def _lint_json(tree: Path, capsys, *extra: str) -> dict:
    argv = ["lint", "--deep", "--no-cache", "--format", "json", *extra, str(tree)]
    try:
        rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code
    payload = json.loads(capsys.readouterr().out)
    payload["_rc"] = rc
    return payload


class TestSeededMutations:
    """Acceptance checks: reintroducing either arena-aliasing bug in the
    real tree must surface the expected ABG34x finding at the caller."""

    def test_layout_alias_detected(self, tmp_path, capsys):
        tree = _copy_tree(tmp_path)
        _mutate(
            tree,
            "sim/superstep.py",
            "self._layouts.append(np.array(jids, dtype=np.int64))",
            "self._layouts.append(np.asarray(jids, dtype=np.int64))",
        )
        payload = _lint_json(tree, capsys)
        assert payload["_rc"] == 1
        hits = [
            f
            for f in payload["findings"]
            if f["code"] == "ABG341" and f["path"].endswith("sharded.py")
        ]
        assert len(hits) == 1
        assert "jids" in hits[0]["message"]

    def test_quantum_snapshot_alias_detected(self, tmp_path, capsys):
        tree = _copy_tree(tmp_path)
        _mutate(
            tree,
            "sim/superstep.py",
            "request=request.copy(),",
            "request=request,",
        )
        payload = _lint_json(tree, capsys)
        assert payload["_rc"] == 1
        hits = [
            f
            for f in payload["findings"]
            if f["code"] in ("ABG341", "ABG344") and f["path"].endswith("sharded.py")
        ]
        assert hits, payload["findings"]
        assert any("append_quantum" in f["message"] for f in hits)
