"""Static-analysis gates, degraded gracefully for minimal environments.

The custom lint pass and an annotation-completeness scan always run (pure
stdlib); ``ruff`` and ``mypy --strict`` run when the tools are installed
(CI installs them; a bare checkout skips).
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_custom_lint_clean() -> None:
    from repro.verify.lint import lint_paths

    findings = lint_paths([SRC])
    assert findings == [], "\n".join(str(f) for f in findings)



#: A fully qualified Sphinx cross-reference into the package.
_XREF = re.compile(r":(?:mod|func|class|meth|data|attr):`~?(repro(?:\.\w+)+)`")


def _resolve(target: str) -> None:
    """Import the longest module prefix of ``target``, then look up the
    rest as attributes (a dataclass field counts as one)."""
    parts = target.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            if name in getattr(obj, "__annotations__", {}) and not hasattr(obj, name):
                return
            obj = getattr(obj, name)
        return
    raise ImportError(f"no module in {target!r}")


def test_docstring_cross_references_resolve() -> None:
    """Every ``:func:`repro...```-style reference in the source names
    something that exists."""
    broken: list[str] = []
    targets = 0
    for path in sorted(SRC.rglob("*.py")):
        for match in _XREF.finditer(path.read_text(encoding="utf-8")):
            targets += 1
            try:
                _resolve(match.group(1))
            except (ImportError, AttributeError) as exc:
                broken.append(f"{path.relative_to(REPO_ROOT)}: {match.group(1)} ({exc})")
    assert targets > 100
    assert broken == [], "\n".join(broken)


#: A dotted name into the package cited in a document.
_DOC_CITATION = re.compile(r"\b(repro(?:\.\w+)+)")


@pytest.mark.parametrize("doc", ["docs/API.md", "docs/PAPER_MAP.md"])
def test_doc_citations_resolve(doc: str) -> None:
    """Every dotted ``repro....`` symbol the API overview and the paper map
    cite names something that exists."""
    citations = set(_DOC_CITATION.findall((REPO_ROOT / doc).read_text(encoding="utf-8")))
    broken = []
    for target in sorted(citations):
        try:
            _resolve(target)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{target} ({exc})")
    assert citations
    assert broken == [], "\n".join(broken)


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


def test_tools_runner_works_outside_the_repo(tmp_path: Path) -> None:
    """The shim lints the package from any working directory, and passes
    flags through instead of mistaking them for paths."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "run_lint.py"), "--format", "json"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["summary"] == {"total": 0}


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
