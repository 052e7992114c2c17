"""Tests of the benchmark itself: seeded inputs, the printed result, and the
oracle check.  Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

The end-to-end cases run ``run.py`` at ``--scale tiny`` (a few seconds
each) and leave their oracle cache and records under ``perfbench/.cache``
and ``perfbench/.out``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pipelines  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess[str]) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json() -> None:
    assert sorted(pipelines.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("scale", pipelines.SCALES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(name: str, scale: str) -> None:
    workload = pipelines.WORKLOADS[name]
    first = workload.fingerprint(workload.generate(7, scale))
    assert first == workload.fingerprint(workload.generate(7, scale))


@pytest.mark.parametrize("scale", pipelines.SCALES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_different_seeds_give_different_inputs(name: str, scale: str) -> None:
    workload = pipelines.WORKLOADS[name]
    first = workload.fingerprint(workload.generate(7, scale))
    assert first != workload.fingerprint(workload.generate(8, scale))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_printed_metrics_match_benchmark_json(name: str, trace: str) -> None:
    proc = _run(
        ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


def test_times_are_normalized_by_the_reference_block() -> None:
    import reference
    import run

    ref = reference.REFERENCE_S
    # One iteration next to a twice-as-slow reference block, one next to a
    # block at the reference speed: both took 2 s at the reference speed.
    record = {
        "error": None,
        "job_quanta": 1000,
        "peak_rss_mb": 50.0,
        "refs": [ref, 2 * ref],
        "iterations": [
            {"traced": False, "wall_s": 4.0, "ref_s": 2 * ref},
            {"traced": False, "wall_s": 2.0, "ref_s": ref},
        ],
    }
    setups = [{"setup_s": 0.6, "ref_s": 2 * ref}]
    metrics = run.summarize(record, setups, trace=0)
    assert metrics["wall_norm_s"] == pytest.approx(2.0)
    assert metrics["job_quanta_per_norm_s"] == pytest.approx(500.0)
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert metrics["peak_rss_mb"] == 50.0


def test_oracle_mismatch_fails_the_run() -> None:
    args = ("--workload", "giant", "--seed", "5", "--seconds", "1", "--scale", "tiny")
    assert _run(ROOT, *args).returncode == 0
    import run

    cached = run.oracle_path("giant", "tiny", 5, run.tree_digest(ROOT / "src"))
    oracle = json.loads(cached.read_text())
    try:
        cached.write_text(json.dumps(dict(oracle, digest="0" * 64)))
        proc = _run(ROOT, *args)
    finally:
        cached.write_text(json.dumps(oracle))
    assert proc.returncode == 1
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"),
    )
    proc = _run(tmp_path, "--workload", "fig6", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
