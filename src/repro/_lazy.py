"""Package exports that resolve on first use (PEP 562).

A package ``__init__`` imports nothing when it is imported.  It names each
export's defining module, and :func:`lazy_exports` builds the module-level
``__getattr__`` and ``__dir__`` that import that module on the first
attribute access and cache the value in the package's globals, so every
later lookup is a plain module attribute::

    if TYPE_CHECKING:
        from .abg import AControl

    __all__ = ["AControl"]

    __getattr__, __dir__ = lazy_exports(__name__, {".abg": ("AControl",)})

The ``TYPE_CHECKING`` imports give type checkers and lint rule ABG105 the
same names; ``tests/test_lazy_exports.py`` holds the table, ``__all__`` and
the defining modules together.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, whose ``exports``
    map a module (relative to ``package``, e.g. ``".abg"``) to the names it
    exports."""
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__
