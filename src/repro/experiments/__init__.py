"""Experiment drivers — one per paper figure/table plus ablations.

Every driver is a pure function returning dataclass rows/series; the
benchmark harness, the CLI (``python -m repro``), and the examples all feed
from these.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .ablations import (
        AllocatorRow,
        DisciplineRow,
        QuantumRow,
        RateRow,
        run_allocator_ablation,
        run_discipline_ablation,
        run_quantum_ablation,
        run_rate_ablation,
    )
    from .arrivals import ArrivalRow, run_arrivals
    from .bounds_check import BoundRow, run_bounds_check
    from .characteristics_study import CharacteristicsRow, run_characteristics_study
    from .common import ExperimentTable, default_rng_seed, format_series, format_table
    from .controller_compare import ControllerRow, run_controller_compare
    from .fig2 import Fig2Result, run_fig2
    from .overhead_study import OverheadRow, run_overhead_study
    from .fig4 import TransientResult, run_fig1, run_fig4, run_transient
    from .fig5 import Fig5Point, Fig5Result, run_fig5
    from .fig6 import Fig6Point, Fig6Result, LoadBin, bin_by_load, run_fig6
    from .stealing_compare import StealingRow, run_stealing_compare
    from .theorem1 import Theorem1Row, run_theorem1
    from .trim_demo import TrimDemoRow, run_trim_demo
    from .runner import ExperimentOutcome, RunnerResult, run_everything

__all__ = [
    "ExperimentOutcome",
    "RunnerResult",
    "run_everything",
    "ExperimentTable",
    "format_table",
    "format_series",
    "default_rng_seed",
    "Fig2Result",
    "run_fig2",
    "TransientResult",
    "run_fig1",
    "run_fig4",
    "run_transient",
    "Fig5Point",
    "Fig5Result",
    "run_fig5",
    "Fig6Point",
    "Fig6Result",
    "LoadBin",
    "run_fig6",
    "bin_by_load",
    "Theorem1Row",
    "run_theorem1",
    "TrimDemoRow",
    "run_trim_demo",
    "StealingRow",
    "run_stealing_compare",
    "BoundRow",
    "run_bounds_check",
    "ArrivalRow",
    "run_arrivals",
    "CharacteristicsRow",
    "run_characteristics_study",
    "OverheadRow",
    "run_overhead_study",
    "ControllerRow",
    "run_controller_compare",
    "RateRow",
    "run_rate_ablation",
    "QuantumRow",
    "run_quantum_ablation",
    "DisciplineRow",
    "run_discipline_ablation",
    "AllocatorRow",
    "run_allocator_ablation",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".ablations": (
            "AllocatorRow", "DisciplineRow", "QuantumRow", "RateRow", "run_allocator_ablation",
            "run_discipline_ablation", "run_quantum_ablation", "run_rate_ablation",
        ),
        ".arrivals": ("ArrivalRow", "run_arrivals"),
        ".bounds_check": ("BoundRow", "run_bounds_check"),
        ".characteristics_study": ("CharacteristicsRow", "run_characteristics_study"),
        ".common": ("ExperimentTable", "default_rng_seed", "format_series", "format_table"),
        ".controller_compare": ("ControllerRow", "run_controller_compare"),
        ".fig2": ("Fig2Result", "run_fig2"),
        ".overhead_study": ("OverheadRow", "run_overhead_study"),
        ".fig4": ("TransientResult", "run_fig1", "run_fig4", "run_transient"),
        ".fig5": ("Fig5Point", "Fig5Result", "run_fig5"),
        ".fig6": ("Fig6Point", "Fig6Result", "LoadBin", "bin_by_load", "run_fig6"),
        ".stealing_compare": ("StealingRow", "run_stealing_compare"),
        ".theorem1": ("Theorem1Row", "run_theorem1"),
        ".trim_demo": ("TrimDemoRow", "run_trim_demo"),
        ".runner": ("ExperimentOutcome", "RunnerResult", "run_everything"),
    },
)
