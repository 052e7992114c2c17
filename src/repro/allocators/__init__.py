"""OS allocators: single-job availability policies and multiprogrammed
processor partitioning."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .availability import (
        ConstantAvailability,
        InverseParallelismAvailability,
        TraceAvailability,
    )
    from .base import Allocator, AvailabilityPolicy, validate_allocation
    from .equipartition import DynamicEquiPartitioning
    from .hierarchical import HierarchicalAllocator
    from .machines import DisjointMachines
    from .roundrobin import RoundRobinAllocator

__all__ = [
    "Allocator",
    "AvailabilityPolicy",
    "validate_allocation",
    "ConstantAvailability",
    "InverseParallelismAvailability",
    "TraceAvailability",
    "DisjointMachines",
    "DynamicEquiPartitioning",
    "HierarchicalAllocator",
    "RoundRobinAllocator",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".availability": (
            "ConstantAvailability", "InverseParallelismAvailability", "TraceAvailability",
        ),
        ".base": ("Allocator", "AvailabilityPolicy", "validate_allocation"),
        ".equipartition": ("DynamicEquiPartitioning",),
        ".hierarchical": ("HierarchicalAllocator",),
        ".machines": ("DisjointMachines",),
        ".roundrobin": ("RoundRobinAllocator",),
    },
)
