"""The benchmark's three workloads: seeded inputs, the program run on them,
and the output check against the serial oracle.

Each workload generates its inputs from a seed, hands only those inputs to
the program, and returns the artifact the program wrote.  Every call into
``repro`` goes through a module attribute (``multi.simulate_job_set``,
``export.write_csv``, ...), so the traced run's wrappers (``layers.py``)
see exactly the calls the untraced run makes.

The oracle is the same pipeline on the serial per-job reference loop
(``batch="off"``, no shards).  Its artifact digest, the job-quanta count
(``len(trace)`` summed over every simulated job) and the operation count
are computed once per seed and cached by ``run.py``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.engine.phased import PhasedJob
from repro.experiments import fig6 as fig6_experiment
from repro.io import traces as traces_io
from repro.report import export
from repro.sim import multi
from repro.sim.jobs import JobSpec
from repro.verify import auditor
from repro.workloads import giant as giant_workload
from repro.workloads.jobsets import JobSetGenerator

__all__ = ["WORKLOADS", "SCALES"]

SCALES = ("full", "tiny")

#: Machine and quantum of the paper's multiprogrammed experiments.
PROCESSORS = 128
QUANTUM = 1000
#: ABG's convergence rate in every workload (the paper's default).
CONVERGENCE_RATE = 0.2


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _phases(job: PhasedJob) -> list[list[int]]:
    return [[p.width, p.levels] for p in job.phases]


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _job_quanta(result: multi.MultiJobResult) -> int:
    return sum(len(trace) for trace in result.traces.values())


# ---------------------------------------------------------------------------
# fig6: the Figure 6 sweep
# ---------------------------------------------------------------------------


class Fig6:
    """The Figure 6 sweep: ``run_fig6`` (ABG and A-Greedy under DEQ, one
    worker) over loads U(0.2, 6.0), then ``write_csv`` of every set's point.

    The load range is cut into equal bands, one ``run_fig6`` call each.
    A set's size grows steeply with its load, so unstratified draws make the
    run's total work swing with the seed; banded draws keep the same uniform
    load distribution while every seed covers every load.  An operation is
    one simulation: two per job set."""

    name = "fig6"
    LOADS = (0.2, 6.0)
    #: (bands, sets per band)
    SIZE = {"full": (12, 5), "tiny": (2, 1)}

    def generate(self, seed: int, scale: str) -> list[dict[str, Any]]:
        bands, per_band = self.SIZE[scale]
        edges = np.linspace(*self.LOADS, bands + 1).tolist()
        return [
            {
                "num_sets": per_band,
                "load_range": [edges[b], edges[b + 1]],
                "processors": PROCESSORS,
                "quantum_length": QUANTUM,
                "convergence_rate": CONVERGENCE_RATE,
                "seed": (seed * bands + b) % 2**32,
                "workers": 1,
            }
            for b in range(bands)
        ]

    def fingerprint(self, inputs: list[dict[str, Any]]) -> bytes:
        return _canonical(inputs)

    def operations(self, inputs: list[dict[str, Any]]) -> int:
        return 2 * sum(int(band["num_sets"]) for band in inputs)

    def run(self, inputs: list[dict[str, Any]], out: Path) -> Path:
        points = []
        for band in inputs:
            kwargs = dict(band, load_range=tuple(band["load_range"]))
            points.extend(fig6_experiment.run_fig6(**kwargs).points)
        return export.write_csv(points, out / "fig6.csv")

    def oracle(self, inputs: list[dict[str, Any]], out: Path) -> dict[str, Any]:
        counts: list[int] = []
        with _serial_fig6(counts):
            path = self.run(inputs, out)
        text = path.read_text()
        return {"digest": _sha256(text.encode()), "job_quanta": sum(counts), "csv": text}

    def failures(self, artifact: Path, oracle: dict[str, Any]) -> int:
        """Simulations whose numbers differ from the oracle's: a CSV row
        holds one job set, its ``abg_*`` columns one simulation and its
        ``agreedy_*`` columns the other; a differing shared column (load,
        job count, ratios) counts against both."""
        text = artifact.read_text()
        if _sha256(text.encode()) == oracle["digest"]:
            return 0
        got = list(csv.DictReader(io.StringIO(text)))
        want = list(csv.DictReader(io.StringIO(oracle["csv"])))
        if len(got) != len(want) or (got and list(got[0]) != list(want[0])):
            return 2 * len(want)
        failed = 0
        for row, ref in zip(got, want):
            bad = {k for k in ref if row.get(k) != ref[k]}
            abg = any(k.startswith("abg_") for k in bad)
            agreedy = any(k.startswith("agreedy_") for k in bad)
            shared = any(not k.startswith(("abg_", "agreedy_")) for k in bad)
            failed += 2 if shared else int(abg) + int(agreedy)
        # Identical fields in a differing file (e.g. line endings) still
        # fail the digest: charge the whole sweep.
        return failed or 2 * len(want)


@contextmanager
def _serial_fig6(counts: list[int]) -> Iterator[None]:
    """Route ``run_fig6``'s simulations through the serial reference loop
    and count each run's job-quanta."""
    original = fig6_experiment.simulate_job_set

    def serial(*args: Any, **kwargs: Any) -> multi.MultiJobResult:
        result = original(*args, batch="off", **kwargs)
        counts.append(_job_quanta(result))
        return result

    fig6_experiment.simulate_job_set = serial
    try:
        yield
    finally:
        fig6_experiment.simulate_job_set = original


# ---------------------------------------------------------------------------
# giant: hierarchical allocation, sharded over two workers
# ---------------------------------------------------------------------------

# The workloads/giant.py job shapes: stable jobs are one phase of width 4;
# churners alternate 3- and 7-wide phases of 900 levels, one churner per 4
# slots of the churning group.
_STABLE_WIDTH = 4
_CHURN_WIDTHS = (3, 7)
_CHURN_PHASE_LEVELS = 900
_CHURN_STRIDE = 4
#: Stable jobs' lengths are jittered by up to this many quanta of levels.
_JITTER_QUANTA = 8


class Giant:
    """The ``repro giant --shards 2 --csv`` pipeline on a seeded giant
    shape: the seed picks which group churns and jitters the stable jobs'
    lengths.  An operation is one run."""

    name = "giant"
    #: (groups, jobs per group, stable quanta)
    SHAPE = {"full": (16, 64, 400), "tiny": (4, 8, 12)}
    SHARDS = 2

    def generate(self, seed: int, scale: str) -> giant_workload.GiantScenario:
        groups, per_group, quanta = self.SHAPE[scale]
        base = giant_workload.giant_scenario(
            groups=groups, jobs_per_group=per_group, stable_quanta=quanta
        )
        rng = _rng(seed)
        churn_group = int(rng.integers(groups))
        jitter = rng.integers(0, _JITTER_QUANTA * QUANTUM + 1, size=len(base.specs))
        stable_levels = quanta * base.quantum_length
        pairs = -(-stable_levels // (2 * _CHURN_PHASE_LEVELS))
        narrow, wide = _CHURN_WIDTHS
        churner = PhasedJob(
            [(narrow, _CHURN_PHASE_LEVELS), (wide, _CHURN_PHASE_LEVELS)] * pairs
        )
        policy = AControl(CONVERGENCE_RATE)
        specs = []
        for jid in range(len(base.specs)):
            churns = jid % groups == churn_group and (jid // groups) % _CHURN_STRIDE == 0
            job = (
                churner
                if churns
                else PhasedJob([(_STABLE_WIDTH, stable_levels + int(jitter[jid]))])
            )
            specs.append(JobSpec(job=job, feedback=policy, job_id=jid))
        return dataclasses.replace(base, specs=tuple(specs))

    def fingerprint(self, inputs: giant_workload.GiantScenario) -> bytes:
        return _canonical(
            {
                "processors": inputs.processors,
                "group_size": inputs.group_size,
                "quantum_length": inputs.quantum_length,
                "rebalance_interval": inputs.rebalance_interval,
                "jobs": [[s.job_id, _phases(s.job)] for s in inputs.specs],
            }
        )

    def operations(self, inputs: giant_workload.GiantScenario) -> int:
        return 1

    def _pipeline(
        self, inputs: giant_workload.GiantScenario, out: Path, **mode: Any
    ) -> tuple[Path, multi.MultiJobResult]:
        result = multi.simulate_job_set(
            inputs.specs,
            inputs.build_allocator(),
            inputs.processors,
            quantum_length=inputs.quantum_length,
            **mode,
        )
        rows = giant_workload.artifact_rows(result)
        return export.write_csv(rows, out / "giant.csv"), result

    def run(self, inputs: giant_workload.GiantScenario, out: Path) -> Path:
        return self._pipeline(inputs, out, shards=self.SHARDS)[0]

    def oracle(self, inputs: giant_workload.GiantScenario, out: Path) -> dict[str, Any]:
        path, result = self._pipeline(inputs, out, batch="off", shards=None)
        return {"digest": _sha256(path.read_bytes()), "job_quanta": _job_quanta(result)}

    def failures(self, artifact: Path, oracle: dict[str, Any]) -> int:
        return int(_sha256(artifact.read_bytes()) != oracle["digest"])


# ---------------------------------------------------------------------------
# trace-roundtrip: simulate, save, load, audit
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RoundTrip:
    """What one trace-roundtrip run leaves behind for the output check."""

    path: Path
    verdict: bytes
    simulated: dict[int, Any]
    loaded: dict[int, Any]


def _verdict(report: Any) -> bytes:
    """Canonical bytes of an audit report: the verdict is part of the
    artifact, so a change in what the auditor finds changes the digest."""
    return _canonical(
        {
            "ok": report.ok,
            "checks": sorted(report.checks),
            "violations": [dataclasses.asdict(v) for v in report.violations],
        }
    )


class TraceRoundTrip:
    """One saturated job set (load about 24 on P=128) run flat under DEQ,
    then ``save_traces``, ``load_traces`` and ``audit_multi_result`` on the
    loaded traces.  An operation is one run."""

    name = "trace-roundtrip"
    LOAD = {"full": 24.0, "tiny": 1.0}
    #: Sets drawn per seed; the one with the median total span is kept.  At
    #: the same load, a set's total span decides most of its job-quanta, so
    #: this keeps the run's size from swinging with the seed: over ten
    #: seeds, the interquartile spread of job-quanta is 0.07 with one draw
    #: and 0.03 with nine.
    CANDIDATES = 9

    def generate(self, seed: int, scale: str) -> list[JobSpec]:
        rng = _rng(seed)
        generator = JobSetGenerator(PROCESSORS, quantum_length=QUANTUM)
        candidates = [
            generator.generate(rng, self.LOAD[scale]) for _ in range(self.CANDIDATES)
        ]
        candidates.sort(key=lambda s: sum(job.span for job in s.jobs))
        sample = candidates[len(candidates) // 2]
        policy = AControl(CONVERGENCE_RATE)
        return [JobSpec(job=job, feedback=policy) for job in sample.jobs]

    def fingerprint(self, inputs: list[JobSpec]) -> bytes:
        return _canonical(
            {
                "processors": PROCESSORS,
                "quantum_length": QUANTUM,
                "jobs": [_phases(s.job) for s in inputs],
            }
        )

    def operations(self, inputs: list[JobSpec]) -> int:
        return 1

    def _pipeline(self, inputs: list[JobSpec], out: Path, **mode: Any) -> RoundTrip:
        result = multi.simulate_job_set(
            inputs,
            DynamicEquiPartitioning(),
            PROCESSORS,
            quantum_length=QUANTUM,
            **mode,
        )
        path = traces_io.save_traces(result.traces, out / "traces.json")
        loaded = traces_io.load_traces(path)
        report = auditor.audit_multi_result(
            multi.MultiJobResult(
                traces=loaded,
                processors=result.processors,
                quantum_length=result.quantum_length,
                quanta_elapsed=result.quanta_elapsed,
                released=dict(result.released),
            )
        )
        return RoundTrip(path, _verdict(report), result.traces, loaded)

    def run(self, inputs: list[JobSpec], out: Path) -> RoundTrip:
        return self._pipeline(inputs, out)

    def _digest(self, artifact: RoundTrip) -> str:
        return _sha256(artifact.path.read_bytes() + b"\n" + artifact.verdict)

    def oracle(self, inputs: list[JobSpec], out: Path) -> dict[str, Any]:
        artifact = self._pipeline(inputs, out, batch="off")
        if artifact.loaded != artifact.simulated:
            raise RuntimeError("oracle traces do not survive a save/load round trip")
        return {
            "digest": self._digest(artifact),
            "job_quanta": sum(len(t) for t in artifact.simulated.values()),
        }

    def failures(self, artifact: RoundTrip, oracle: dict[str, Any]) -> int:
        same = artifact.loaded == artifact.simulated
        return int(not same or self._digest(artifact) != oracle["digest"])


WORKLOADS = {w.name: w for w in (Fig6(), Giant(), TraceRoundTrip())}
