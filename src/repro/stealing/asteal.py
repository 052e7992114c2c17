"""A-Steal and ABP — the work-stealing schedulers of the paper's related work.

**A-Steal** (Agrawal, He, Leiserson [2, 3]) is the distributed sibling of
A-Greedy: the same multiplicative-increase multiplicative-decrease request
rules driven by quantum utilization, but executing with randomized work
stealing instead of a centralized greedy scheduler.  In our unit-task,
discrete-time model a processor cycle either executes a task or it does not
(steal attempts and idle waiting both count as non-work cycles), so the
utilization signal ``T1(q) / (a(q) * L)`` coincides with A-Greedy's and the
request rules are shared via subclassing.

**ABP** (Arora, Blumofe, Plaxton [4]) uses the same work-stealing execution
but *no parallelism feedback*: it always asks for the whole machine and lets
the allocator decide.  The paper's related work notes A-Steal empirically
dominates ABP — our work-stealing bench reproduces that (ABP burns the whole
machine through a job's serial phases).
"""

from __future__ import annotations

from ..core.agreedy import AGreedy
from ..core.reference import FixedRequest

__all__ = ["ASteal", "ABPPolicy"]


class ASteal(AGreedy):
    """A-Greedy's request rules paired (by convention) with work-stealing
    execution."""

    def __init__(self, responsiveness: float = 2.0, utilization_threshold: float = 0.8):
        super().__init__(responsiveness, utilization_threshold)
        self.name = (
            f"A-Steal(rho={self.responsiveness:g}, delta={self.utilization_threshold:g})"
        )


class ABPPolicy(FixedRequest):
    """ABP's non-adaptive request: always the whole machine."""

    def __init__(self, processors: int):
        super().__init__(processors)
        self.name = f"ABP(P={processors})"
