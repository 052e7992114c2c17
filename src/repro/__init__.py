"""repro — a reproduction of "Adaptive B-Greedy (ABG): A Simple yet Efficient
Scheduling Algorithm" (Hongyang Sun, Wen-Jing Hsu, IPPS 2008).

ABG is a two-level adaptive scheduler for malleable parallel jobs: the
B-Greedy task scheduler executes ready tasks breadth-first (measuring the
job's average parallelism per quantum exactly) and the A-Control feedback
law ``d(q) = r*d(q-1) + (1-r)*A(q-1)`` turns that measurement into stable,
zero-overshoot processor requests.  The package also implements the A-Greedy
baseline, dynamic equi-partitioning, the paper's control-theoretic and trim
analyses, and the full evaluation harness (Figures 1-6, Theorems 1-5).

Quickstart
----------
>>> import numpy as np
>>> from repro import AControl, AGreedy, ForkJoinGenerator, simulate_job
>>> gen = ForkJoinGenerator(quantum_length=1000)
>>> job = gen.generate(np.random.default_rng(0), transition_factor=20)
>>> abg = simulate_job(job, AControl(0.2), availability=128)
>>> agreedy = simulate_job(job, AGreedy(), availability=128)
>>> abg.total_waste <= agreedy.total_waste
True
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .allocators import (
        Allocator,
        AvailabilityPolicy,
        ConstantAvailability,
        DynamicEquiPartitioning,
        InverseParallelismAvailability,
        RoundRobinAllocator,
        TraceAvailability,
    )
    from .analysis import (
        check_lemma2,
        classify_quanta,
        job_set_transition_factor,
        measured_transition_factor,
        theorem3_time_bound,
        theorem4_waste_bound,
        theorem5_makespan_bound,
        theorem5_response_bound,
        trimmed_availability,
    )
    from .control import FirstOrderLoop, analyze_response, theorem1_loop, verify_theorem1
    from .core import (
        NO_OVERHEAD,
        AControl,
        AdaptiveQuantumLength,
        AGreedy,
        FeedbackPolicy,
        FixedQuantumLength,
        FixedRequest,
        JobTrace,
        OracleFeedback,
        QuantumRecord,
        ReallocationOverhead,
    )
    from .dag import (
        Dag,
        chain,
        characteristics,
        diamond,
        figure2_fragment,
        fork_join,
        fork_join_from_phases,
        random_layered,
        wide_level,
    )
    from .engine import ExplicitExecutor, Phase, PhasedExecutor, PhasedJob
    from .io import load_trace, load_traces, save_trace, save_traces
    from .report import line_chart, rows_to_csv, sparkline
    from .sim import (
        JobSpec,
        MultiJobResult,
        make_executor,
        makespan,
        makespan_lower_bound,
        mean_response_time,
        mean_response_time_lower_bound,
        simulate_job,
        simulate_job_set,
    )
    from .stealing import ABPPolicy, ASteal, StealStats, WorkStealingExecutor
    from .workloads import (
        ForkJoinGenerator,
        JobSetGenerator,
        constant_parallelism_job,
        fork_join_job,
        job_from_profile,
        ramped_job,
        structural_transition_factor,
    )

__version__ = "1.0.0"

__all__ = [
    # engines & job models
    "Dag",
    "PhasedJob",
    "Phase",
    "ExplicitExecutor",
    "PhasedExecutor",
    "make_executor",
    # dag builders
    "chain",
    "wide_level",
    "diamond",
    "fork_join",
    "fork_join_from_phases",
    "figure2_fragment",
    "random_layered",
    "characteristics",
    # feedback policies
    "FeedbackPolicy",
    "AControl",
    "AGreedy",
    "FixedRequest",
    "OracleFeedback",
    # quantum policies
    "FixedQuantumLength",
    "AdaptiveQuantumLength",
    # overhead models
    "ReallocationOverhead",
    "NO_OVERHEAD",
    # allocators
    "Allocator",
    "AvailabilityPolicy",
    "ConstantAvailability",
    "InverseParallelismAvailability",
    "TraceAvailability",
    "DynamicEquiPartitioning",
    "RoundRobinAllocator",
    # simulation
    "simulate_job",
    "simulate_job_set",
    "JobSpec",
    "MultiJobResult",
    "JobTrace",
    "QuantumRecord",
    # metrics
    "makespan",
    "mean_response_time",
    "makespan_lower_bound",
    "mean_response_time_lower_bound",
    # control-theoretic analysis
    "FirstOrderLoop",
    "analyze_response",
    "theorem1_loop",
    "verify_theorem1",
    # algorithmic analysis
    "classify_quanta",
    "trimmed_availability",
    "measured_transition_factor",
    "job_set_transition_factor",
    "check_lemma2",
    "theorem3_time_bound",
    "theorem4_waste_bound",
    "theorem5_makespan_bound",
    "theorem5_response_bound",
    # workloads
    "ForkJoinGenerator",
    "JobSetGenerator",
    "constant_parallelism_job",
    "fork_join_job",
    "job_from_profile",
    "ramped_job",
    "structural_transition_factor",
    # work stealing (related-work schedulers)
    "WorkStealingExecutor",
    "StealStats",
    "ASteal",
    "ABPPolicy",
    # reporting & persistence
    "sparkline",
    "line_chart",
    "rows_to_csv",
    "save_trace",
    "load_trace",
    "save_traces",
    "load_traces",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".allocators": (
            "Allocator", "AvailabilityPolicy", "ConstantAvailability", "DynamicEquiPartitioning",
            "InverseParallelismAvailability", "RoundRobinAllocator", "TraceAvailability",
        ),
        ".analysis": (
            "check_lemma2", "classify_quanta", "job_set_transition_factor",
            "measured_transition_factor", "theorem3_time_bound", "theorem4_waste_bound",
            "theorem5_makespan_bound", "theorem5_response_bound", "trimmed_availability",
        ),
        ".control": ("FirstOrderLoop", "analyze_response", "theorem1_loop", "verify_theorem1"),
        ".core": (
            "NO_OVERHEAD", "AControl", "AdaptiveQuantumLength", "AGreedy", "FeedbackPolicy",
            "FixedQuantumLength", "FixedRequest", "JobTrace", "OracleFeedback", "QuantumRecord",
            "ReallocationOverhead",
        ),
        ".dag": (
            "Dag", "chain", "characteristics", "diamond", "figure2_fragment", "fork_join",
            "fork_join_from_phases", "random_layered", "wide_level",
        ),
        ".engine": ("ExplicitExecutor", "Phase", "PhasedExecutor", "PhasedJob"),
        ".io": ("load_trace", "load_traces", "save_trace", "save_traces"),
        ".report": ("line_chart", "rows_to_csv", "sparkline"),
        ".sim": (
            "JobSpec", "MultiJobResult", "make_executor", "makespan",
            "makespan_lower_bound", "mean_response_time", "mean_response_time_lower_bound",
            "simulate_job", "simulate_job_set",
        ),
        ".stealing": ("ABPPolicy", "ASteal", "StealStats", "WorkStealingExecutor"),
        ".workloads": (
            "ForkJoinGenerator", "JobSetGenerator", "constant_parallelism_job", "fork_join_job",
            "job_from_profile", "ramped_job", "structural_transition_factor",
        ),
    },
)
