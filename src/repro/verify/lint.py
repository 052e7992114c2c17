"""Repo-specific determinism and correctness lint pass.

A small AST linter encoding the rules that generic tools cannot know about
this codebase (see CONTRIBUTING.md "Ground rules"):

``ABG101`` **unseeded randomness** — the ``random`` stdlib module and the
legacy ``numpy.random.<fn>()`` global-state functions are banned inside
``src/repro``; every source of randomness must be an explicitly passed
``numpy.random.Generator`` (``default_rng(seed)`` construction is allowed).
Global random state silently breaks bit-for-bit reproducibility.

``ABG102`` **float equality** — ``==`` / ``!=`` against a float literal.
Controller states and spans are accumulated floats; exact comparison is a
latent flake.  Compare against a tolerance, or suppress with ``# noqa:
ABG102`` where exactness is structural (e.g. a value assigned verbatim).

``ABG103`` **mutable default argument** — list/dict/set displays or
constructor calls as parameter defaults alias state across calls.

``ABG104`` **set-order iteration** — ``for`` loops (and sorted-less
comprehensions) iterating a set display or ``set(...)`` call directly.
Set iteration order depends on hash seeding; schedulers must iterate in a
deterministic order (sort first).

``ABG105`` **__all__ consistency** — every name exported in ``__all__``
must exist at module top level, and every public top-level function/class
must be listed in ``__all__`` (when the module declares one).

``ABG290`` **unjustified suppression** — an ``# abg: allow[...]`` comment
without a ``reason=`` clause (see :mod:`repro.verify.findings`).

Two numeric rules apply only to the array-kernel modules
(:data:`KERNEL_PATTERNS`), where tests cannot reliably reach the hazard:

``ABG311`` **unstable indirect sort** — ``argsort`` without
``kind="stable"``.  Tie order under the default introsort follows memory
layout, and test data may never produce the ties that expose it.  Plain
value sorts are deterministic under any algorithm and are not flagged.

``ABG313`` **platform-dependent dtype** — ``np.arange``/``array``/
``asarray``/``fromiter``/``full`` without ``dtype=``.  Integer results
default to the platform C long, and CI runs on one platform only.
(``zeros``/``empty``/``ones`` default to float64 everywhere.)

Suppression: a trailing ``# noqa`` comment silences every rule on that
line; ``# noqa: ABG102[,ABG104]`` silences specific rules; the
justification-required ``# abg: allow[ABG104] reason=...`` form works for
every rule.

Run as a module::

    python -m repro.verify.lint src/repro        # exit 1 on findings
"""

from __future__ import annotations

import ast
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Sequence

from .findings import (
    LintFinding,
    is_suppressed,
    rule_severity,
    scan_suppressions,
)

__all__ = [
    "LintFinding",
    "check_source",
    "check_file",
    "lint_paths",
    "main",
    "RULE_CODES",
    "KERNEL_PATTERNS",
    "is_kernel_path",
]

RULE_CODES = (
    "ABG101", "ABG102", "ABG103", "ABG104", "ABG105", "ABG290", "ABG311", "ABG313"
)

#: Path globs of the array-kernel modules ABG311/ABG313 cover.
KERNEL_PATTERNS: tuple[str, ...] = (
    "*/sim/multi_batched.py",
    "*/sim/superstep.py",
    "*/engine/batched.py",
    "*/allocators/*.py",
    "*/dag/structure.py",
    "*/core/types.py",
    "*/core/columnar.py",
)

#: numpy constructors whose integer results default to the platform C long.
_DTYPE_REQUIRED = frozenset({"arange", "array", "asarray", "fromiter", "full"})

_STABLE_KINDS = frozenset({"stable", "mergesort"})

#: numpy.random attributes that are deterministic-by-construction and allowed.
_ALLOWED_NP_RANDOM = frozenset(
    {"Generator", "SeedSequence", "default_rng", "BitGenerator", "PCG64"}
)

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
)


def is_kernel_path(path: str) -> bool:
    """Whether ``path`` names an array-kernel module."""
    normalized = path.replace("\\", "/")
    return any(fnmatchcase(normalized, pat) for pat in KERNEL_PATTERNS)


def _keyword(node: ast.Call, name: str) -> ast.keyword | None:
    return next((kw for kw in node.keywords if kw.arg == name), None)


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source: str):
        self.path = path
        self.kernel = is_kernel_path(path)
        self.lines = source.splitlines()
        self.findings: list[LintFinding] = []
        self._np_aliases: set[str] = set()
        self._np_random_aliases: set[str] = set()
        self._random_module_aliases: set[str] = set()

    # -- helpers ------------------------------------------------------------

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if is_suppressed(self.lines, line, code):
            return
        self.findings.append(
            LintFinding(
                path=self.path,
                line=line,
                col=col,
                code=code,
                message=message,
                severity=rule_severity(code),
            )
        )

    # -- ABG101: unseeded randomness ----------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._random_module_aliases.add(alias.asname or "random")
                self._emit(
                    node,
                    "ABG101",
                    "stdlib `random` is banned in src/repro; pass a seeded "
                    "numpy.random.Generator instead",
                )
            elif alias.name in ("numpy", "numpy.random"):
                target = alias.asname or alias.name.split(".")[0]
                if alias.name == "numpy.random":
                    self._np_random_aliases.add(alias.asname or "numpy")
                else:
                    self._np_aliases.add(target)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._emit(
                node,
                "ABG101",
                "stdlib `random` is banned in src/repro; pass a seeded "
                "numpy.random.Generator instead",
            )
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _ALLOWED_NP_RANDOM:
                    self._emit(
                        node,
                        "ABG101",
                        f"`from numpy.random import {alias.name}` uses numpy's "
                        "global random state; use Generator/default_rng",
                    )
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._np_random_aliases.add(alias.asname or "random")
        self.generic_visit(node)

    def _np_random_attr(self, node: ast.Attribute) -> str | None:
        """If ``node`` is ``<numpy alias>.random.<name>`` or
        ``<numpy.random alias>.<name>``, return ``<name>``."""
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self._np_aliases
        ):
            return node.attr
        if isinstance(value, ast.Name) and value.id in self._np_random_aliases:
            return node.attr
        return None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = self._np_random_attr(node)
        if name is not None and name not in _ALLOWED_NP_RANDOM:
            self._emit(
                node,
                "ABG101",
                f"numpy.random.{name} uses numpy's global random state; "
                "use an explicitly passed Generator",
            )
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in self._random_module_aliases
        ):
            self._emit(
                node,
                "ABG101",
                f"random.{node.attr} draws from unseeded global state",
            )
        self.generic_visit(node)

    # -- ABG311 / ABG313: kernel-module numerics ---------------------------

    def _is_numpy_call(self, node: ast.Call) -> bool:
        """Whether the callee is rooted at a numpy alias (``np.x``, ``np.x.y``)."""
        func = node.func
        while isinstance(func, ast.Attribute):
            func = func.value
        return isinstance(func, ast.Name) and func.id in self._np_aliases

    def visit_Call(self, node: ast.Call) -> None:
        if self.kernel and isinstance(node.func, ast.Attribute):
            tail = node.func.attr
            if tail == "argsort":
                kind = _keyword(node, "kind")
                if not (
                    kind is not None
                    and isinstance(kind.value, ast.Constant)
                    and kind.value.value in _STABLE_KINDS
                ):
                    self._emit(
                        node,
                        "ABG311",
                        'argsort without kind="stable": tie order follows '
                        "memory layout under the default introsort, so equal "
                        'keys permute nondeterministically — pass kind="stable"',
                    )
            elif (
                tail in _DTYPE_REQUIRED
                and self._is_numpy_call(node)
                and _keyword(node, "dtype") is None
                and not (tail == "asarray" and self._typed_numpy_arg(node))
            ):
                self._emit(
                    node,
                    "ABG313",
                    f"np.{tail} without an explicit dtype=: integer results "
                    "default to the platform C long, so index arithmetic "
                    "widens differently across platforms — pin the dtype",
                )
        self.generic_visit(node)

    def _typed_numpy_arg(self, node: ast.Call) -> bool:
        """``np.asarray(x)`` where ``x`` is itself a numpy call already
        carrying a dtype — no widening ambiguity to pin."""
        if len(node.args) != 1 or not isinstance(node.args[0], ast.Call):
            return False
        inner = node.args[0]
        return self._is_numpy_call(inner) and _keyword(inner, "dtype") is not None

    # -- ABG102: float equality ---------------------------------------------

    @staticmethod
    def _is_float_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp):
            return _Linter._is_float_expr(node.operand)
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                self._is_float_expr(left) or self._is_float_expr(right)
            ):
                self._emit(
                    node,
                    "ABG102",
                    "exact ==/!= against a float literal; compare with a "
                    "tolerance (math.isclose) or add `# noqa: ABG102` if "
                    "the value is assigned verbatim",
                )
                break
        self.generic_visit(node)

    # -- ABG103: mutable default arguments ----------------------------------

    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                       ast.DictComp, ast.SetComp))
            if (
                not bad
                and isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
            ):
                bad = True
            if bad:
                self._emit(
                    default,
                    "ABG103",
                    "mutable default argument aliases state across calls; "
                    "default to None (or use dataclasses.field)",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- ABG104: set-order iteration ----------------------------------------

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # set algebra (a | b, a - b, ...) — only flag when a side is
            # syntactically a set, otherwise we cannot know the type.
            return _Linter._is_set_expr(node.left) or _Linter._is_set_expr(node.right)
        return False

    def _check_set_iteration(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            self._emit(
                iter_node,
                "ABG104",
                "iterating a set directly is hash-order dependent; wrap in "
                "sorted(...) for a deterministic traversal",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    # -- ABG105: __all__ consistency ----------------------------------------

    def check_module_exports(self, tree: ast.Module) -> None:
        declared: list[tuple[ast.AST, str]] = []
        top_level: set[str] = set()
        all_node: ast.AST | None = None
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top_level.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            top_level.add(name_node.id)
                if (
                    len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "__all__"
                    and isinstance(stmt.value, (ast.List, ast.Tuple))
                ):
                    all_node = stmt
                    for elt in stmt.value.elts:
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                            declared.append((elt, elt.value))
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                top_level.add(stmt.target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    top_level.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.If):
                # TYPE_CHECKING / version-gated definitions: collect one
                # level of conditional names.
                for sub in [*stmt.body, *stmt.orelse]:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        top_level.add(sub.name)
                    elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            if alias.name != "*":
                                top_level.add(alias.asname or alias.name.split(".")[0])

        if all_node is None:
            return
        exported = {name for _, name in declared}
        for node, name in declared:
            if name not in top_level:
                self._emit(
                    node,
                    "ABG105",
                    f"__all__ exports {name!r} but the module never defines it",
                )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_") and stmt.name not in exported:
                    self._emit(
                        stmt,
                        "ABG105",
                        f"public top-level name {stmt.name!r} missing from __all__",
                    )


def check_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one source string; returns findings sorted by position."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintFinding(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                code="ABG100",
                message=f"syntax error: {exc.msg}",
                severity=rule_severity("ABG100"),
            )
        ]
    linter = _Linter(path, source)
    linter.visit(tree)
    linter.check_module_exports(tree)
    linter.findings.extend(scan_suppressions(linter.lines, path))
    return sorted(linter.findings, key=lambda f: (f.line, f.col, f.code))


def check_file(path: Path | str) -> list[LintFinding]:
    p = Path(path)
    return check_source(p.read_text(encoding="utf-8"), str(p))


def _iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.exists():
            files.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
    return files


def lint_paths(paths: Iterable[Path | str]) -> list[LintFinding]:
    """Lint files and directories (recursively); returns all findings."""
    findings: list[LintFinding] = []
    for f in _iter_python_files(paths):
        findings.extend(check_file(f))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.verify.lint <file-or-dir> ...", file=sys.stderr)
        return 2
    try:
        findings = lint_paths(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
