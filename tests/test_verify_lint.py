"""Tests for the determinism/invariant lint pass (``repro.verify.lint``).

Each rule must fire on a minimal synthetic source, stay quiet on the
idiomatic alternative, and honor ``# noqa`` / ``# abg: allow`` suppression;
the kernel-module rules must fire on seeded mutations of the real tree; the
rule registry, the ``--explain`` catalogue and docs/STATIC_ANALYSIS.md must
list the same rules; the shipped source tree must lint clean.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.verify.catalogue import CATALOGUE, explain
from repro.verify.findings import RULES, LintFinding, exit_code
from repro.verify.lint import check_source, is_kernel_path, lint_paths, main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
DOC_PATH = REPO_SRC.parent.parent / "docs" / "STATIC_ANALYSIS.md"

#: A path the kernel-module rules (ABG311, ABG313) apply to.
KERNEL_PATH = "src/repro/engine/batched.py"


def codes(source: str, path: str = "<string>") -> list[str]:
    return [f.code for f in check_source(textwrap.dedent(source), path)]


class TestUnseededRandomness:
    def test_stdlib_random_import_flagged(self):
        assert "ABG101" in codes("import random\n")
        assert "ABG101" in codes("from random import shuffle\n")

    def test_stdlib_random_call_flagged(self):
        found = codes("import random\nx = random.random()\n")
        assert found.count("ABG101") >= 2  # the import and the call

    def test_numpy_global_state_flagged(self):
        assert "ABG101" in codes("import numpy as np\nnp.random.seed(3)\n")
        assert "ABG101" in codes("import numpy\nnumpy.random.rand(4)\n")
        assert "ABG101" in codes("from numpy.random import rand\n")

    def test_seeded_generator_allowed(self):
        assert codes("import numpy as np\nrng = np.random.default_rng(0)\n") == []
        assert codes("from numpy.random import Generator, default_rng\n") == []
        assert codes("import numpy as np\nx = rng.integers(0, 5)\n") == []


class TestFloatEquality:
    def test_float_literal_comparison_flagged(self):
        assert "ABG102" in codes("if x == 1.0:\n    pass\n")
        assert "ABG102" in codes("ok = y != 0.5\n")
        assert "ABG102" in codes("if x == -1.0:\n    pass\n")

    def test_integer_and_ordering_comparisons_allowed(self):
        assert codes("if x == 1:\n    pass\n") == []
        assert codes("if x <= 1.0:\n    pass\n") == []
        assert codes("if math.isclose(x, 1.0):\n    pass\n") == []


class TestMutableDefaults:
    def test_literal_defaults_flagged(self):
        assert "ABG103" in codes("def f(xs=[]):\n    pass\n")
        assert "ABG103" in codes("def f(m={}):\n    pass\n")
        assert "ABG103" in codes("def f(*, s=set()):\n    pass\n")
        assert "ABG103" in codes("g = lambda xs=list(): xs\n")

    def test_immutable_defaults_allowed(self):
        assert codes("def f(xs=None, n=3, t=()):\n    pass\n") == []


class TestSetOrderIteration:
    def test_direct_set_iteration_flagged(self):
        assert "ABG104" in codes("for x in {1, 2, 3}:\n    pass\n")
        assert "ABG104" in codes("for x in set(xs):\n    pass\n")
        assert "ABG104" in codes("ys = [x for x in {1, 2}]\n")
        assert "ABG104" in codes("for x in set(a) - set(b):\n    pass\n")

    def test_sorted_traversal_allowed(self):
        assert codes("for x in sorted({1, 2, 3}):\n    pass\n") == []
        assert codes("for x in [1, 2, 3]:\n    pass\n") == []


class TestDunderAllConsistency:
    def test_phantom_export_flagged(self):
        assert "ABG105" in codes('__all__ = ["missing"]\n')

    def test_unexported_public_def_flagged(self):
        src = '__all__ = ["f"]\n\ndef f():\n    pass\n\ndef g():\n    pass\n'
        assert "ABG105" in codes(src)

    def test_consistent_module_clean(self):
        src = (
            '__all__ = ["f", "CONST"]\n'
            "CONST = 3\n\n"
            "def f():\n    pass\n\n"
            "def _private():\n    pass\n"
        )
        assert codes(src) == []

    def test_no_dunder_all_is_fine(self):
        assert codes("def f():\n    pass\n") == []


class TestNoqaSuppression:
    def test_specific_code_suppressed(self):
        assert codes("if x == 1.0:  # noqa: ABG102\n    pass\n") == []

    def test_bare_noqa_suppresses_everything(self):
        assert codes("for x in {1, 2}:  # noqa\n    pass\n") == []

    def test_other_code_not_suppressed(self):
        assert "ABG102" in codes("if x == 1.0:  # noqa: ABG104\n    pass\n")


class TestTreeAndRunner:
    def test_shipped_source_tree_is_clean(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_main_exit_codes(self, tmp_path: Path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f() -> int:\n    return 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert "ABG101" in capsys.readouterr().out
        assert main([]) == 2

    def test_main_rejects_missing_path(self, tmp_path: Path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_is_reported_not_raised(self, tmp_path: Path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([bad])
        assert findings and findings[0].path == str(bad)


class TestAllowSuppression:
    def test_reasonless_allow_reported_as_abg290(self):
        findings = check_source("x = 1  # abg: allow[ABG102]\n")
        assert [f.code for f in findings] == ["ABG290"]

    def test_allow_with_reason_suppresses(self):
        src = """\
            import numpy as np

            def indices(n):
                return np.arange(n)  # abg: allow[ABG313] reason=index arithmetic only
        """
        assert codes(src, KERNEL_PATH) == []

    def test_allow_with_reason_works_for_file_local_rules(self):
        src = "if x == 1.0:  # abg: allow[ABG102] reason=sentinel is exact\n    pass\n"
        assert check_source(src) == []

    def test_allow_without_reason_is_inert(self):
        assert codes("if x == 1.0:  # abg: allow[ABG102]\n    pass\n") == [
            "ABG102",
            "ABG290",
        ]


class TestKernelPathMatching:
    def test_repo_kernels_match(self):
        assert is_kernel_path("src/repro/sim/multi_batched.py")
        assert is_kernel_path("src/repro/sim/superstep.py")
        assert is_kernel_path("src/repro/engine/batched.py")
        assert is_kernel_path("src/repro/allocators/equipartition.py")
        assert is_kernel_path("src/repro/dag/structure.py")

    def test_non_kernels_do_not_match(self):
        assert not is_kernel_path("src/repro/experiments/runner.py")
        assert not is_kernel_path("src/repro/verify/lint.py")

    def test_kernel_rules_skip_non_kernel_files(self):
        src = "import numpy as np\n\nORDER = np.argsort(np.arange(3))\n"
        assert codes(src, "src/repro/analysis/trim.py") == []
        assert codes(src, KERNEL_PATH) == ["ABG311", "ABG313"]


class TestUnstableArgsort:
    def test_unstable_argsort_flagged(self):
        src = """\
            import numpy as np

            def repack(jids):
                return np.argsort(jids)
        """
        assert codes(src, KERNEL_PATH) == ["ABG311"]

    def test_method_argsort_flagged(self):
        src = """\
            def repack(jids):
                return jids.argsort()
        """
        assert codes(src, KERNEL_PATH) == ["ABG311"]

    def test_stable_argsort_is_clean(self):
        src = """\
            import numpy as np

            def repack(jids):
                return np.argsort(jids, kind="stable")
        """
        assert codes(src, KERNEL_PATH) == []

    def test_suppression_with_reason_honored(self):
        src = """\
            import numpy as np

            def repack(jids):
                return np.argsort(jids)  # abg: allow[ABG311] reason=jids are unique
        """
        assert codes(src, KERNEL_PATH) == []

    def test_reasonless_suppression_is_inert(self):
        src = """\
            import numpy as np

            def repack(jids):
                return np.argsort(jids)  # abg: allow[ABG311]
        """
        assert sorted(codes(src, KERNEL_PATH)) == ["ABG290", "ABG311"]


class TestMissingDtype:
    def test_missing_dtype_flagged(self):
        src = """\
            import numpy as np

            def indices(n):
                return np.arange(n)
        """
        assert codes(src, KERNEL_PATH) == ["ABG313"]

    def test_pinned_dtype_is_clean(self):
        src = """\
            import numpy as np

            def indices(n):
                return np.arange(n, dtype=np.int64)
        """
        assert codes(src, KERNEL_PATH) == []

    def test_asarray_of_typed_numpy_call_exempt(self):
        src = """\
            import numpy as np

            def widen(n):
                return np.asarray(np.zeros(n, dtype=np.float64))
        """
        assert codes(src, KERNEL_PATH) == []

    def test_zeros_needs_no_dtype(self):
        src = """\
            import numpy as np

            def buffer(n):
                return np.zeros(n)
        """
        assert codes(src, KERNEL_PATH) == []


class TestSeededMutations:
    """Each seeded mutation of a real kernel module must make
    ``python -m repro lint`` fail with the expected rule."""

    @pytest.mark.parametrize(
        "old, new, code",
        [
            (
                'np.argsort(jid_all, kind="stable")',
                "np.argsort(jid_all)",
                "ABG311",
            ),
            (
                "np.array(jids, dtype=np.int64)",
                "np.array(jids)",
                "ABG313",
            ),
        ],
        ids=["ABG311", "ABG313"],
    )
    def test_superstep_mutation_detected(self, tmp_path, capsys, old, new, code):
        source = (REPO_SRC / "sim" / "superstep.py").read_text()
        assert source.count(old) == 1, "mutation anchor not unique"
        target = tmp_path / "sim" / "superstep.py"
        target.parent.mkdir()
        target.write_text(source)
        assert cli_main(["lint", str(target)]) == 0
        capsys.readouterr()
        target.write_text(source.replace(old, new))
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", "--format", "json", str(target)])
        assert exc.value.code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == [code]


class TestLintCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f() -> int:\n    return 1\n")
        assert cli_main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", str(dirty)])
        assert exc.value.code == 1
        assert "ABG101" in capsys.readouterr().out

    def test_json_format_schema(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f() -> int:\n    return 1\n")
        assert cli_main(["lint", "--format", "json", str(clean)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "schema": 2,
            "findings": [],
            "summary": {"total": 0, "errors": 0, "warnings": 0},
        }

    def test_json_format_reports_findings(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        with pytest.raises(SystemExit):
            cli_main(["lint", "--format", "json", str(dirty)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["findings"][0]["code"] == "ABG101"

    def test_exit_code_policy_ignores_warnings(self):
        warning = LintFinding(
            path="p", line=1, col=0, code="X", message="m", severity="warning"
        )
        error = LintFinding(path="p", line=1, col=0, code="X", message="m")
        assert exit_code([]) == 0
        assert exit_code([warning]) == 0
        assert exit_code([warning, error]) == 1


class TestCatalogue:
    def test_registry_covers_every_rule(self):
        assert set(CATALOGUE) == set(RULES)

    def test_doc_mentions_every_code(self):
        live, _, _ = DOC_PATH.read_text().partition("## Removed rules")
        assert set(re.findall(r"ABG\d{3}", live)) == set(RULES)

    def test_descriptions_track_the_rule_registry(self):
        for code, entry in CATALOGUE.items():
            assert entry.description == RULES[code][1]
            assert entry.hazard and entry.example and entry.suppression

    def test_explain_formats_an_entry(self):
        text = explain("ABG311")
        assert text is not None
        assert "ABG311" in text and "ties" in text
        assert "abg: allow[ABG311]" in text

    def test_explain_unknown_code_is_none(self):
        assert explain("ABG999") is None

    def test_explain_cli(self, capsys):
        assert cli_main(["lint", "--explain", "abg313"]) == 0
        out = capsys.readouterr().out
        assert "ABG313" in out and "Suppression guidance" in out
