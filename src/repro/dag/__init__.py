"""Explicit dag job model: graph structure, builders, and structural analysis."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .analysis import JobCharacteristics, characteristics
    from .builders import (
        chain,
        diamond,
        figure2_fragment,
        fork_join,
        fork_join_from_phases,
        random_layered,
        wide_level,
    )
    from .graph import Dag, DagValidationError
    from .structure import LevelStructure, analyze_level_structure

__all__ = [
    "Dag",
    "DagValidationError",
    "LevelStructure",
    "analyze_level_structure",
    "JobCharacteristics",
    "characteristics",
    "chain",
    "wide_level",
    "diamond",
    "fork_join",
    "fork_join_from_phases",
    "figure2_fragment",
    "random_layered",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analysis": ("JobCharacteristics", "characteristics"),
        ".builders": (
            "chain", "diamond", "figure2_fragment", "fork_join", "fork_join_from_phases",
            "random_layered", "wide_level",
        ),
        ".graph": ("Dag", "DagValidationError"),
        ".structure": ("LevelStructure", "analyze_level_structure"),
    },
)
