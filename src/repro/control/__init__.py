"""Control-theoretic model and metrics (paper Section 4 / Theorem 1)."""

from .analysis import ResponseMetrics, analyze_response
from .controllers import FixedGainIntegral, tuned_gain
from .limit_cycle import AGreedyLimitCycle, agreedy_limit_cycle, iterate_agreedy_requests
from .lti import FirstOrderLoop
from .theory import Theorem1Verdict, theorem1_gain, theorem1_loop, verify_theorem1

__all__ = [
    "FirstOrderLoop",
    "FixedGainIntegral",
    "tuned_gain",
    "AGreedyLimitCycle",
    "agreedy_limit_cycle",
    "iterate_agreedy_requests",
    "ResponseMetrics",
    "analyze_response",
    "theorem1_gain",
    "theorem1_loop",
    "verify_theorem1",
    "Theorem1Verdict",
]
