"""One benchmark process: set-up, then the program run over and over on the
same seeded inputs.

``run.py`` starts this script from the root of the checkout and reads the
JSON object on its last line of output::

    python3 perfbench/worker.py --workload giant --seed 7 --mode timed \\
        --seconds 25 --oracle perfbench/.cache/oracle-....json \\
        --out perfbench/.out/giant

Modes:

``setup``
    Imports and generates the inputs, then reports when that ended: one
    sample of the set-up time.
``timed``
    After set-up, one warm-up iteration, then timed iterations until
    ``--seconds`` are used up.  An iteration is the program from the
    hand-over of the inputs until its artifact is on disk.  The reference
    block (``reference.py``) runs before the first iteration and after
    every one.  Every iteration's artifact, the warm-up's too, is checked
    against the oracle.  Reports every iteration's wall time with the mean
    of the two reference blocks around it, the peak RSS of this process plus
    its reaped children (the shard workers), and how many operations failed
    the check.
``traced``
    The same, but the iterations after the warm-up alternate untraced and
    traced (every layer wrapped by ``layers.Tracer``); the traced ones also
    report their per-layer metrics, and the last one's spans go to
    ``--out``.
``oracle``
    Runs the serial reference pipeline and writes its digest, job-quanta
    count and operation count to ``--oracle``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument(
        "--mode", choices=("setup", "timed", "traced", "oracle"), required=True
    )
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--oracle", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"worker: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pipelines
    import reference

    tracer = None
    if args.mode == "traced":
        import layers

        tracer = layers.Tracer().install()
    workload = pipelines.WORKLOADS[args.workload]
    if tracer is not None:
        with tracer.span("workloads.generate"):
            inputs = workload.generate(args.seed, args.scale)
        tracer.uninstall()
        generate_s = tracer.take()["workloads.generate_s"]
    else:
        inputs = workload.generate(args.seed, args.scale)
    setup_end = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"mode": "setup", "setup_end": setup_end}))
        return 0
    args.out.mkdir(parents=True, exist_ok=True)

    if args.mode == "oracle":
        oracle = workload.oracle(inputs, args.out)
        oracle["operations"] = workload.operations(inputs)
        args.oracle.parent.mkdir(parents=True, exist_ok=True)
        partial = args.oracle.with_suffix(".partial")
        partial.write_text(json.dumps(oracle))
        os.replace(partial, args.oracle)
        print(json.dumps({"mode": "oracle"}))
        return 0

    oracle = json.loads(args.oracle.read_text())
    operations = oracle["operations"]
    record: dict[str, Any] = {
        "mode": args.mode,
        "attempted": 0,
        "failed": 0,
        "error": None,
        "iterations": [],
    }
    begun = time.perf_counter()
    durations: list[float] = []
    refs = [reference.time_reference()]
    try:
        # Iteration 0 is the warm-up; in traced mode the odd ones are traced.
        # The reference block runs between every two iterations.
        while True:
            index = len(durations)
            estimate = min(durations[1:] or durations or [0.0]) + refs[-1]
            if index >= 3 and time.perf_counter() - begun + estimate > args.seconds:
                break
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                artifact = workload.run(inputs, args.out)
                wall_s = time.perf_counter() - start
            finally:
                if traced:
                    tracer.uninstall()
            durations.append(wall_s)
            refs.append(reference.time_reference())
            failed = workload.failures(artifact, oracle)
            record["attempted"] += operations
            record["failed"] += failed
            if index == 0:
                continue
            sample: dict[str, Any] = {
                "traced": traced,
                "wall_s": wall_s,
                # the reference blocks right before and right after
                "ref_s": (refs[-2] + refs[-1]) / 2,
            }
            if traced:
                sample["layers"] = tracer.take()
                sample["layers"]["workloads.generate_s"] += generate_s
            record["iterations"].append(sample)
        record["refs"] = refs
        record["peak_rss_mb"] = _peak_rss_mb()
        record["job_quanta"] = oracle["job_quanta"]
    except Exception as exc:  # the run's remaining operations fail, not the process
        traceback.print_exc()
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["attempted"] += operations
        record["failed"] += operations
    if tracer is not None:
        tracer.dump(args.out / "spans.json")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
