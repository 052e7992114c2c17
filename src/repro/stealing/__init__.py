"""Work-stealing substrate: the ABP deque, a discrete-time work-stealing
executor, and the A-Steal / ABP schedulers from the paper's related work."""

from .asteal import ABPPolicy, ASteal
from .deque import WorkStealingDeque
from .executor import StealStats, WorkStealingExecutor

__all__ = [
    "WorkStealingDeque",
    "WorkStealingExecutor",
    "StealStats",
    "ASteal",
    "ABPPolicy",
]
