"""Static-analysis gates, degraded gracefully for minimal environments.

The custom lint pass and an annotation-completeness scan always run (pure
stdlib); ``ruff`` and ``mypy --strict`` run when the tools are installed
(CI installs them; a bare checkout skips).
"""

from __future__ import annotations

import ast
import re
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_custom_lint_clean() -> None:
    from repro.verify.lint import lint_paths

    findings = lint_paths([SRC])
    assert findings == [], "\n".join(str(f) for f in findings)



def test_suppressions_name_known_rules() -> None:
    """Every code in an ``abg: allow[...]`` or ``noqa: ABGnnn`` comment is a
    live rule: a suppression of a deleted or misspelled rule is dead text."""
    from repro.verify.findings import RULES

    unknown: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as handle:
            for tok in tokenize.tokenize(handle.readline):
                if tok.type != tokenize.COMMENT:
                    continue
                codes: list[str] = []
                allow = re.search(r"abg:\s*allow\[([^\]]*)\]", tok.string)
                if allow:
                    codes += [c.strip().upper() for c in allow.group(1).split(",")]
                noqa = re.search(r"noqa:([^#]*)", tok.string)
                if noqa:
                    codes += re.findall(r"ABG\d{3}", noqa.group(1).upper())
                where = f"{path.relative_to(REPO_ROOT)}:{tok.start[0]}"
                unknown += [f"{where} {c}" for c in codes if c not in RULES]
    assert unknown == [], "\n".join(unknown)

def test_all_signatures_annotated() -> None:
    """Cheap proxy for ``mypy --strict``'s no-untyped-def: every function in
    ``src/repro`` annotates its parameters and return type."""
    missing: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}"
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(f"{where}: parameter {arg.arg!r}")
            if args.vararg is not None and args.vararg.annotation is None:
                missing.append(f"{where}: *{args.vararg.arg}")
            if args.kwarg is not None and args.kwarg.annotation is None:
                missing.append(f"{where}: **{args.kwarg.arg}")
            if node.returns is None and node.name != "__init__":
                missing.append(f"{where}: return type")
    assert missing == [], "\n".join(missing)


def test_tools_runner_lints_the_tree() -> None:
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "run_lint.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean() -> None:
    proc = subprocess.run(
        ["ruff", "check", "src"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_clean() -> None:
    proc = subprocess.run(
        ["mypy", "--strict", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
