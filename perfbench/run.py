"""The repository benchmark: end-to-end metrics (``--trace 0``) or per-layer
metrics (``--trace 1``) of one seeded workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6 --seed 1 --seconds 20 --trace 0

First the seed's oracle (the serial ``batch="off"`` pipeline) is computed,
outside any timed region, and cached under ``.cache/`` in this directory.
Then ``SETUP_REPS`` fresh interpreters (``worker.py --mode setup``) each
import the program and generate the inputs: the set-up samples.  Then one
measuring process (``worker.py``) sets up, runs the program once to warm
up, and runs it again on the same inputs until ``--seconds`` are used up.
Every metric is a median over those iterations or set-up samples.  An
iteration whose artifact differs from the oracle's counts as failed
operations; any failure makes the exit code 1.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units are
the ones ``BENCHMARK.json`` declares.  A full record of the run, with its
provenance and every sample, goes to ``.out/`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import reference

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
CACHE = HERE / ".cache"
OUT = HERE / ".out"

#: Whatever ``--seconds`` asks, the run ends within this many seconds.
HARD_LIMIT_S = 165.0
#: Fresh interpreters started per run to sample the set-up time.
SETUP_REPS = 7


def tree_digest(root: Path) -> str:
    """sha256 over the program's sources (relative path and bytes of every
    ``.py`` file under ``src/``): the oracle cache key, and provenance in
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git(root: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: Path, src_digest: str) -> dict[str, Any]:
    rev = dirty = None
    if (root / ".git").exists():
        rev = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": src_digest,
    }


def _child_env() -> dict[str, str]:
    """The environment of every repetition: ambient ``REPRO_*`` overrides
    (fault plans, superstep mode) would change what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def _run_worker(
    args: argparse.Namespace,
    mode: str,
    oracle: Path,
    deadline: float,
    seconds: float = 0.0,
) -> tuple[dict[str, Any] | None, float, str]:
    """Run one ``worker.py`` process; returns its record (``None`` if it
    produced none), the spawn time, and its stderr."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--mode", mode,
        "--seconds", str(seconds),
        "--oracle", str(oracle),
        "--out", str(OUT / args.workload / mode),
    ]
    spawned = time.perf_counter()
    # Own session, so a timed-out worker is killed with its shard workers.
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, spawned, err + f"\nworker timed out ({mode})"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, spawned, err + f"\nworker exited with code {proc.returncode}"
    try:
        return json.loads(lines[-1]), spawned, err
    except json.JSONDecodeError:
        return None, spawned, err + "\nworker printed no result"


def oracle_path(workload: str, scale: str, seed: int, src_digest: str) -> Path:
    """Where the oracle of one seed is cached; the key covers the program's
    sources and ``pipelines.py``, so a changed program never reuses it."""
    key = hashlib.sha256(
        (src_digest + (HERE / "pipelines.py").read_text()).encode()
    ).hexdigest()[:16]
    return CACHE / f"oracle-{workload}-{scale}-{seed}-{key}.json"


def _oracle(args: argparse.Namespace, src_digest: str, deadline: float) -> Path:
    path = oracle_path(args.workload, args.scale, args.seed, src_digest)
    if not path.exists():
        record, _, err = _run_worker(args, "oracle", path, deadline)
        if record is None or not path.exists():
            sys.stderr.write(err)
            raise SystemExit(f"oracle for {args.workload} seed {args.seed} failed")
    return path


def _setup_times(
    args: argparse.Namespace, oracle: Path, deadline: float
) -> list[dict[str, float]]:
    """Set-up time of ``SETUP_REPS`` fresh interpreters, from spawning each
    to the end of its input generation, with the mean of the reference
    blocks this process runs right before and right after it."""
    samples = []
    ref = reference.time_reference()
    for _ in range(SETUP_REPS):
        record, spawned, err = _run_worker(args, "setup", oracle, deadline)
        before, ref = ref, reference.time_reference()
        if record is None:
            sys.stderr.write(err)
            continue
        samples.append({"setup_s": record["setup_end"] - spawned, "ref_s": (before + ref) / 2})
    return samples


def _measure(args: argparse.Namespace, oracle: Path, deadline: float) -> dict[str, Any]:
    """The run's one measuring process: its record, or a record whose every
    operation failed if it produced none."""
    mode = "traced" if args.trace else "timed"
    record, _, err = _run_worker(args, mode, oracle, deadline, args.seconds)
    if record is None or record["error"] is not None:
        sys.stderr.write(err)
    if record is None:
        ops = json.loads(oracle.read_text())["operations"]
        record = {"mode": mode, "attempted": ops, "failed": ops,
                  "error": "no result", "iterations": []}
    return record


def _norm(sample: dict[str, Any], key: str) -> float:
    """``sample[key]`` in seconds at the reference speed (``reference.py``)."""
    return sample[key] * reference.REFERENCE_S / sample["ref_s"]


def summarize(
    record: dict[str, Any], setups: list[dict[str, float]], trace: int
) -> dict[str, float]:
    """The metric values of one run: medians over the measuring process's
    iterations (the untraced ones for end-to-end metrics, the traced ones
    for per-layer metrics) and over the set-up samples."""
    iterations = record["iterations"] if record["error"] is None else []
    timed = [s for s in iterations if not s["traced"]]
    if not timed or not setups:
        return {}
    if not trace:
        return {
            "wall_norm_s": statistics.median(_norm(s, "wall_s") for s in timed),
            "job_quanta_per_norm_s": statistics.median(
                record["job_quanta"] / _norm(s, "wall_s") for s in timed
            ),
            "setup_s": statistics.median(_norm(s, "setup_s") for s in setups),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    traced = [s for s in iterations if s["traced"]]
    if not traced:
        return {}
    metrics = {
        _share_name(name): statistics.median(
            s["layers"][name] / s["wall_s"] if _is_time(name) else s["layers"][name]
            for s in traced
        )
        for name in traced[0]["layers"]
    }
    metrics["tracing.overhead_ratio"] = statistics.median(
        _norm(s, "wall_s") for s in traced
    ) / statistics.median(_norm(s, "wall_s") for s in timed)
    metrics["host.wall_s"] = statistics.median(s["wall_s"] for s in timed)
    metrics["host.ref_s"] = statistics.median(record["refs"])
    return metrics


def _is_time(name: str) -> bool:
    return name.endswith(("_s", ".s"))


def _share_name(name: str) -> str:
    """``io.save_s`` -> ``io.save_share``, ``audit.s`` -> ``audit.share``.

    Layer times are reported as shares of the same traced iteration's
    raw ``wall_s``: a layer a workload never enters then reads 0 as a ratio,
    not as a time that never changes; the seconds stay in the run record.
    """
    if not _is_time(name):
        return name
    return name[:-1] + "share" if name.endswith(".s") else name[:-2] + "_share"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    began = time.perf_counter()
    deadline = began + HARD_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources under {root / 'src'}", file=sys.stderr)
        return 2
    src_digest = tree_digest(root / "src")
    oracle = _oracle(args, src_digest, deadline)
    setups = _setup_times(args, oracle, deadline)
    record = _measure(args, oracle, deadline)
    metrics = summarize(record, setups, args.trace)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics and set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    attempted = record["attempted"]
    failed = record["failed"]
    correct = failed == 0 and bool(metrics)
    prov = provenance(root, src_digest)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"scale {args.scale}  iterations {len(record['iterations'])}  "
          f"set-ups {len(setups)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'error_rate':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "scale": args.scale,
                "seconds": args.seconds,
                "elapsed_s": time.perf_counter() - began,
                "provenance": prov,
                "metrics": metrics,
                "attempted": attempted,
                "failed": failed,
                "setups": setups,
                "record": record,
            },
            indent=1,
        )
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
