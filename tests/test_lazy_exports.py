"""Package exports resolve on first use (``repro._lazy``).

Every name in every package's ``__all__`` must resolve to the very object
its defining module holds, and the modules a fresh interpreter loads must
stay the ones a run needs.  Lint rule ABG105 reads only the import
statements, so a typo in a package's name-to-module table would otherwise
surface only when someone uses that name.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.glob("repro/**/__init__.py")
)
#: The packages whose exports resolve on first use (``repro._lazy``).
LAZY = [p for p in PACKAGES if "__getattr__" in vars(importlib.import_module(p))]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def _init_tree(package: str) -> ast.Module:
    path = SRC.joinpath(*package.split("."), "__init__.py")
    return ast.parse(path.read_text(encoding="utf-8"))


def _assigned_names(package: str) -> set[str]:
    """The names the package ``__init__`` binds by top-level assignment."""
    return {
        target.id
        for stmt in _init_tree(package).body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }


def _imported_names(package: str) -> dict[str, str]:
    """Each name the package ``__init__`` imports, eagerly or under
    ``TYPE_CHECKING``, mapped to the absolute name of its source module."""
    tree = _init_tree(package)
    statements = list(tree.body)
    for stmt in tree.body:
        if isinstance(stmt, ast.If):
            statements.extend(stmt.body)
    names: dict[str, str] = {}
    for stmt in statements:
        if isinstance(stmt, ast.ImportFrom) and stmt.level > 0:
            module = importlib.util.resolve_name(
                "." * stmt.level + (stmt.module or ""), package
            )
            if module == "repro._lazy":
                continue
            for alias in stmt.names:
                names[alias.asname or alias.name] = module
    return names


def _modules_after(statement: str) -> list[str]:
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"import sys, json; {statement}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(statement: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    return [m for m in _modules_after(statement) if m.split(".")[0] == "repro"]


def test_the_packages_on_every_start_up_path_are_lazy() -> None:
    assert {"repro", "repro.experiments", "repro.verify", "repro.sim"} <= set(LAZY)


def test_only_the_documented_packages_are_eager() -> None:
    """docs/ARCHITECTURE.md lists these packages as importing eagerly."""
    eager = {p.removeprefix("repro.") for p in set(PACKAGES) - set(LAZY)}
    assert eager == {"control", "engine", "goldens", "io", "runtime", "stealing"}


@pytest.mark.parametrize("package", PACKAGES)
def test_all_resolves_to_the_defining_object(package: str) -> None:
    module = importlib.import_module(package)
    sources = _imported_names(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    for name in exported:
        value = getattr(module, name)
        if name in sources:
            source = importlib.import_module(sources[name])
            assert value is getattr(source, name), f"{package}.{name} is not {sources[name]}.{name}"
        assert not isinstance(value, ModuleType), f"{package}.{name} is a submodule"
    assert set(exported) <= set(dir(module))
    if package in LAZY:
        # The TYPE_CHECKING imports and the lazy table name exactly the
        # exports the package does not define itself (``__version__``).
        assert set(sources) == set(exported) - _assigned_names(package)
        assert set(dir(module)) - set(vars(module)) == set()


@pytest.mark.parametrize("package", LAZY)
def test_no_lazy_export_is_named_like_a_submodule(package: str) -> None:
    """Importing ``pkg.name`` binds the submodule as the attribute ``name``,
    after which a lazy export of that name never resolves."""
    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    assert set(module.__all__) & submodules == set()


@pytest.mark.parametrize("package", LAZY)
def test_unknown_attribute_raises(package: str) -> None:
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        _ = module.no_such_export


def test_resolved_name_is_cached_in_the_package() -> None:
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro; before = 'AControl' in vars(repro); "
            "from repro import AControl; "
            "from repro.core.abg import AControl as defined; "
            "print(before, vars(repro)['AControl'] is defined)",
        ],
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == ["False", "True"]


def test_import_repro_loads_no_subpackage() -> None:
    assert _loaded_after("import repro") == ["repro", "repro._lazy"]


def _assert_fig6_modules_only(modules: list[str]) -> None:
    # A run that opens no process pool loads no process-pool machinery.
    assert "concurrent.futures.process" not in modules
    assert "multiprocessing" not in modules
    loaded = [m for m in modules if m.split(".")[0] == "repro"]
    experiments = {m for m in loaded if m.startswith("repro.experiments.")}
    assert experiments == {
        "repro.experiments.common",
        "repro.experiments.fig6",
        "repro.experiments.parallel",
    }
    for package in ("repro.control", "repro.stealing", "repro.goldens"):
        assert [m for m in loaded if m.split(".")[:2] == package.split(".")] == []


def test_fig6_loads_only_its_own_experiment_modules() -> None:
    _assert_fig6_modules_only(_modules_after("import repro.experiments.fig6"))


def test_cli_loads_no_experiment_module() -> None:
    loaded = _loaded_after("import repro.cli")
    assert [m for m in loaded if m.startswith("repro.experiments.")] == []


def test_cli_fig6_loads_only_the_fig6_modules() -> None:
    _assert_fig6_modules_only(
        _modules_after("from repro.cli import main; main(['fig6', '--sets', '2', '--bins', '1'])")
    )
