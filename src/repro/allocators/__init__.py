"""OS allocators: single-job availability policies and multiprogrammed
processor partitioning."""

from .availability import (
    ConstantAvailability,
    InverseParallelismAvailability,
    RandomAvailability,
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
    "RandomAvailability",
    "TraceAvailability",
    "DisjointMachines",
    "DynamicEquiPartitioning",
    "HierarchicalAllocator",
    "RoundRobinAllocator",
]
