"""Perf-baseline harness: time the canonical scenarios, write ``BENCH_<rev>.json``,
and gate against a committed baseline.

Wall-clock times are machine-dependent, so every report also records a
*calibration* time — a fixed pure-python workload measured on the same
machine in the same process — and a per-scenario ``normalized`` time
(scenario seconds / calibration seconds).  The regression gate compares
normalized times, which makes a committed baseline meaningful across
machines of different speeds; the raw seconds and units/second throughput
are kept for human reading.

Refresh the committed baseline after an intentional perf change with::

    python -m repro bench --write-baseline benchmarks/BENCH_baseline.json
"""

from __future__ import annotations

import heapq
import json
import os
import subprocess
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..runtime import write_atomic
from .scenarios import BENCH_SCALES, SCENARIOS, Scenario

__all__ = [
    "ScenarioTiming",
    "BenchReport",
    "Regression",
    "MemRegression",
    "run_bench",
    "write_report",
    "report_payload",
    "load_report",
    "compare_reports",
    "compare_memory",
    "current_rev",
    "measure_calibration",
]

#: Schema version of the BENCH_<rev>.json artifact.  2 added per-scenario
#: ``peak_bytes``; schema-1 reports still load (peak reads as 0).  The
#: optional ``nproc``/``dirty`` provenance keys read as None when absent.
BENCH_SCHEMA = 2


@dataclass(frozen=True, slots=True)
class ScenarioTiming:
    name: str
    description: str
    seconds: float
    """Best-of-``repeats`` wall time of one scenario run."""
    units: int
    """Work units the scenario processed (scheduler steps / simulations)."""
    units_per_second: float
    normalized: float
    """``seconds / calibration_seconds`` — the machine-independent figure the
    regression gate compares."""
    repeats: int
    peak_bytes: int = 0
    """Peak python heap allocation (tracemalloc) of one scenario run,
    measured on a separate untimed pass so instrumentation never taints the
    wall times.  0 in reports predating schema 2."""


@dataclass(slots=True)
class BenchReport:
    rev: str
    scale: str
    calibration_seconds: float
    timings: list[ScenarioTiming] = field(default_factory=list)
    nproc: int | None = None
    """CPUs the measuring process could run on; None in older reports."""
    dirty: bool | None = None
    """Whether the git tree had uncommitted changes (``rev`` then does not
    name the measured code); None outside git and in older reports."""

    def timing(self, name: str) -> ScenarioTiming | None:
        for t in self.timings:
            if t.name == name:
                return t
        return None

    def speedups_vs(self, baseline: "BenchReport") -> dict[str, float]:
        """Per-scenario ``baseline_normalized / current_normalized`` (>1 means
        this revision is faster)."""
        out: dict[str, float] = {}
        for t in self.timings:
            b = baseline.timing(t.name)
            if b is not None and t.normalized > 0:
                out[t.name] = b.normalized / t.normalized
        return out


@dataclass(frozen=True, slots=True)
class Regression:
    scenario: str
    baseline_normalized: float
    current_normalized: float
    slowdown: float
    """``current / baseline`` normalized-time ratio (>1 means slower)."""


@dataclass(frozen=True, slots=True)
class MemRegression:
    scenario: str
    baseline_peak_bytes: int
    current_peak_bytes: int
    growth: float
    """``current / baseline`` peak-heap ratio (>1 means more memory)."""


def _git(*args: str) -> str | None:
    """stdout of a git command, or None when git fails or is missing."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def current_rev() -> str:
    """Short git revision of the working tree, or ``"dev"`` outside git."""
    return _git("rev-parse", "--short", "HEAD") or "dev"


def _tree_dirty() -> bool | None:
    """Whether ``git status --porcelain`` lists any change; None outside git."""
    status = _git("status", "--porcelain")
    return None if status is None else bool(status)


def _nproc() -> int | None:
    """CPUs this process may run on, as ``nproc`` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def measure_calibration(repeats: int = 3) -> float:
    """Time a fixed pure-python workload (heap churn — the same primitive the
    reference engine leans on) to normalize wall times across machines."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        heap: list[int] = []
        acc = 0
        for i in range(50_000):
            heapq.heappush(heap, (i * 2654435761) % 100_003)
            if i % 3 == 0:
                acc += heapq.heappop(heap)
        while heap:
            acc += heapq.heappop(heap)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_scenario(
    scenario: Scenario, scale: str, repeats: int
) -> tuple[float, int, int]:
    units = scenario.run(scale)  # warm-up (also yields the unit count)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        scenario.run(scale)
        best = min(best, time.perf_counter() - t0)
    # Peak-memory pass, after (and outside) the timing loop: tracemalloc
    # slows allocation several-fold, so it must never overlap a timed run.
    tracemalloc.start()
    try:
        scenario.run(scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return best, units, int(peak)


def run_bench(
    *,
    scale: str = "default",
    repeats: int = 3,
    rev: str | None = None,
) -> BenchReport:
    """Time every canonical scenario and return the report."""
    if scale not in BENCH_SCALES:
        raise ValueError(f"unknown bench scale {scale!r}; pick one of {BENCH_SCALES}")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    calibration = measure_calibration(repeats)
    report = BenchReport(
        rev=rev if rev is not None else current_rev(),
        scale=scale,
        calibration_seconds=calibration,
        nproc=_nproc(),
        dirty=_tree_dirty(),
    )
    for scenario in SCENARIOS:
        seconds, units, peak = _time_scenario(scenario, scale, repeats)
        report.timings.append(
            ScenarioTiming(
                name=scenario.name,
                description=scenario.description,
                seconds=seconds,
                units=units,
                units_per_second=units / seconds if seconds > 0 else float("inf"),
                normalized=seconds / calibration,
                repeats=repeats,
                peak_bytes=peak,
            )
        )
    return report


def report_payload(
    report: BenchReport, baseline: BenchReport | None = None
) -> dict[str, Any]:
    """The JSON-serializable form of a report (the ``BENCH_<rev>.json`` body),
    with per-scenario speedups when a baseline is given."""
    payload: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "rev": report.rev,
        "dirty": report.dirty,
        "nproc": report.nproc,
        "scale": report.scale,
        "calibration_seconds": report.calibration_seconds,
        "scenarios": [asdict(t) for t in report.timings],
    }
    if baseline is not None:
        payload["baseline_rev"] = baseline.rev
        payload["speedup_vs_baseline"] = report.speedups_vs(baseline)
    return payload


def write_report(
    report: BenchReport,
    out_dir: str | Path,
    *,
    baseline: BenchReport | None = None,
) -> Path:
    """Write ``BENCH_<rev>.json`` into ``out_dir`` and return its path."""
    path = Path(out_dir) / f"BENCH_{report.rev}.json"
    return write_atomic(path, json.dumps(report_payload(report, baseline), indent=1))


def load_report(path: str | Path) -> BenchReport:
    """Load a report (a baseline) previously written by :func:`write_report`."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") not in (1, BENCH_SCHEMA):
        raise ValueError(
            f"unsupported bench schema {data.get('schema')!r} in {path}"
        )
    report = BenchReport(
        rev=str(data["rev"]),
        scale=str(data["scale"]),
        calibration_seconds=float(data["calibration_seconds"]),
        nproc=None if data.get("nproc") is None else int(data["nproc"]),
        dirty=None if data.get("dirty") is None else bool(data["dirty"]),
    )
    for entry in data["scenarios"]:
        report.timings.append(
            ScenarioTiming(
                name=str(entry["name"]),
                description=str(entry["description"]),
                seconds=float(entry["seconds"]),
                units=int(entry["units"]),
                units_per_second=float(entry["units_per_second"]),
                normalized=float(entry["normalized"]),
                repeats=int(entry["repeats"]),
                peak_bytes=int(entry.get("peak_bytes", 0)),
            )
        )
    return report


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    *,
    max_regression: float = 0.2,
    min_seconds: float = 0.005,
) -> list[Regression]:
    """Return the scenarios whose normalized time regressed beyond the gate.

    A scenario regresses when ``current_normalized > baseline_normalized *
    (1 + max_regression)`` *and* its current wall time is at least
    ``min_seconds`` — sub-noise-floor timings (fractions of a millisecond)
    cannot be gated meaningfully, but a microsecond scenario that blows up
    past the floor is still caught.  Scenarios absent from the baseline are
    skipped (they are new work, not regressions).
    """
    if max_regression < 0:
        raise ValueError("max_regression must be non-negative")
    if current.scale != baseline.scale:
        raise ValueError(
            f"cannot gate a {current.scale!r}-scale run against a "
            f"{baseline.scale!r}-scale baseline"
        )
    regressions: list[Regression] = []
    for t in current.timings:
        b = baseline.timing(t.name)
        if b is None or b.normalized <= 0:
            continue
        slowdown = t.normalized / b.normalized
        if slowdown > 1.0 + max_regression and t.seconds >= min_seconds:
            regressions.append(
                Regression(
                    scenario=t.name,
                    baseline_normalized=b.normalized,
                    current_normalized=t.normalized,
                    slowdown=slowdown,
                )
            )
    return regressions


def compare_memory(
    current: BenchReport,
    baseline: BenchReport,
    *,
    max_regression: float = 0.25,
    min_bytes: int = 1_000_000,
) -> list[MemRegression]:
    """Return the scenarios whose peak heap grew beyond the gate.

    Peak allocation (unlike wall time) is deterministic for a fixed
    workload, so the gate needs no noise floor in the same sense — but
    ``min_bytes`` still skips scenarios whose footprint is too small to
    gate meaningfully, and baseline entries whose peak reads as 0
    (schema-1 reports) are skipped as un-gateable rather than treated as
    infinite regressions.
    """
    if max_regression < 0:
        raise ValueError("max_regression must be non-negative")
    if current.scale != baseline.scale:
        raise ValueError(
            f"cannot gate a {current.scale!r}-scale run against a "
            f"{baseline.scale!r}-scale baseline"
        )
    regressions: list[MemRegression] = []
    for t in current.timings:
        b = baseline.timing(t.name)
        if b is None or b.peak_bytes <= 0:
            continue
        growth = t.peak_bytes / b.peak_bytes
        if growth > 1.0 + max_regression and t.peak_bytes >= min_bytes:
            regressions.append(
                MemRegression(
                    scenario=t.name,
                    baseline_peak_bytes=b.peak_bytes,
                    current_peak_bytes=t.peak_bytes,
                    growth=growth,
                )
            )
    return regressions
