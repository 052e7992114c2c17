"""Reference feedback policies used as experiment controls.

Neither appears in the paper's evaluation; they bracket the adaptive
policies from below (no adaptation at all) and above (clairvoyance) in the
ablation benchmarks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .feedback import FeedbackPolicy
from .types import QuantumRecord

__all__ = ["FixedRequest", "OracleFeedback"]


class FixedRequest(FeedbackPolicy):
    """Always requests the same number of processors (non-adaptive
    scheduling, the conventional approach the paper's introduction argues
    against)."""

    def __init__(self, processors: int):
        if processors < 1:
            raise ValueError("must request at least one processor")
        self.processors = int(processors)
        self.name = f"Fixed({self.processors})"

    def first_request(self) -> float:
        return float(self.processors)

    def next_request(self, prev: QuantumRecord) -> float:
        return float(self.processors)

    def next_request_batch(
        self,
        *,
        request: np.ndarray,
        request_int: np.ndarray,
        allotment: np.ndarray,
        work: np.ndarray,
        span: np.ndarray,
        steps: np.ndarray,
    ) -> np.ndarray | None:
        # The constant request vectorizes trivially — and exactly.
        return np.full(request.shape, float(self.processors), dtype=np.float64)


class OracleFeedback(FeedbackPolicy):
    """Clairvoyant feedback: requests the job's *true* instantaneous
    parallelism at each quantum boundary.

    The oracle peeks at the executor (via ``parallelism_source``, typically
    ``executor.current_parallelism``) — precisely the information a
    non-clairvoyant scheduler like ABG must estimate from history.  It upper-
    bounds what any parallelism-feedback policy can achieve.
    """

    #: Scalar-only by design: each request calls back into the live
    #: executor, so there is no array form to vectorize.  The feedback
    #: parity test accepts a ``None`` batch result only with this marker.
    batch_fallback = True

    def __init__(self, parallelism_source: Callable[[], float]):
        self._source = parallelism_source
        self.name = "Oracle"

    def first_request(self) -> float:
        return max(1.0, self._source())

    def next_request(self, prev: QuantumRecord) -> float:
        return max(1.0, self._source())
