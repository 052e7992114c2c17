#!/usr/bin/env python3
"""Perf gate: this checkout against a parent checkout, on the repository
benchmark (``BENCHMARK.json``, ``perfbench/``)::

    python tools/perf_gate.py PARENT_CHECKOUT [--out FILE]

For each workload, ``PAIRS`` pairs of runs alternate between the parent and
this checkout: pair *i* runs seed *i* on both sides, and the side that runs
first alternates from pair to pair.  Every run is this checkout's
``perfbench/run.py --seconds SECONDS``, started with its side's checkout as
the working directory, so both sides run identical benchmark code over
their own ``src/``.

Prints each side's median and quartiles of every end-to-end metric, and
next to them each pair's change/parent ratio and how many pairs the change
won (a ratio on the metric's ``better`` side of 1), with the exact two-sided
sign-test p-value of those pairs (ties dropped).  ``--out FILE`` also
writes every run as JSON: its workload, seed, side, place in the run order
and the full result ``run.py`` printed.  Exits 1 if any run is not
correct, or if for any (metric, workload) the change's median is worse
than the parent's by more than the metric's ``bound`` (a fraction of the
parent's median, in the direction of its ``better``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = ROOT / "BENCHMARK.json"

PAIRS = 5
SECONDS = 3
SEEDS = range(1, PAIRS + 1)

#: One run's result: the JSON object ``run.py`` prints last.
Run = Mapping[str, Any]


def run_once(checkout: Path, workload: str, seed: int) -> Run:
    """One benchmark run in ``checkout``; a run that printed no result
    counts as incorrect."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(
    runs: Mapping[str, Mapping[str, Sequence[Run]]],
    end_to_end: Sequence[Mapping[str, Any]],
) -> tuple[list[str], bool]:
    """The gate's table and verdict over ``runs[workload][side]`` (sides
    ``"parent"`` and ``"change"``) and ``BENCHMARK.json``'s ``end_to_end``."""
    lines = [f"{'workload':16s} {'metric':22s} {'parent median [q1, q3]':>33s} "
             f"{'change median [q1, q3]':>33s} {'change':>8s}  {'verdict':24s} "
             "pairs won  sign p  change/parent per pair"]
    ok = True
    for workload, sides in runs.items():
        incorrect = {side: sum(not r["correct"] for r in rs) for side, rs in sides.items()}
        if any(incorrect.values()):
            ok = False
            lines.append(f"{workload:16s} INCORRECT runs: {incorrect}")
        for metric in end_to_end:
            name = metric["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                for side, rs in sides.items()
            }
            if not values["parent"] or not values["change"]:
                continue
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            rel = change[1] / parent[1] - 1
            worse = rel if metric["better"] == "lower" else -rel
            verdict = "ok" if worse <= metric["bound"] else f"WORSE (bound {metric['bound']})"
            ok = ok and worse <= metric["bound"]
            ratios = pair_ratios(sides["parent"], sides["change"], name)
            won = sum(r < 1 if metric["better"] == "lower" else r > 1 for r in ratios)
            lost = sum(r > 1 if metric["better"] == "lower" else r < 1 for r in ratios)
            lines.append(
                f"{workload:16s} {name:22s} {_cell(parent):>33s} {_cell(change):>33s} "
                f"{rel:+8.1%}  {verdict:24s} {won:>4d} of {len(ratios):<3d} "
                f"{sign_test_p(won, lost):7.4f}  "
                + " ".join(f"{r:.3f}" for r in ratios)
            )
    return lines, ok


def sign_test_p(won: int, lost: int) -> float:
    """Exact two-sided sign-test p-value of ``won`` against ``lost`` pairs
    (ties already dropped): the chance, under a fair coin, of a split at
    least as uneven.  No pairs give 1."""
    n = won + lost
    tail = sum(math.comb(n, i) for i in range(min(won, lost) + 1))
    return min(1.0, 2 * tail / 2**n)


def pair_ratios(parent: Sequence[Run], change: Sequence[Run], name: str) -> list[float]:
    """Change/parent ratio of metric ``name`` in each pair (the runs at the
    same position of both lists) where both runs report it."""
    return [
        c["metrics"][name]["value"] / p["metrics"][name]["value"]
        for p, c in zip(parent, change)
        if name in p["metrics"] and name in c["metrics"] and p["metrics"][name]["value"]
    ]


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/perf_gate.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, help="write every run to this JSON file")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "repro").is_dir():
        parser.error(f"{args.parent} is not a checkout: no src/repro")
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads(SPEC.read_text())
    runs: dict[str, dict[str, list[Run]]] = {}
    record: list[dict[str, Any]] = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {"parent": [], "change": []}
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(checkouts[side], workload, seed)
                runs[workload][side].append(result)
                record.append({"workload": workload, "seed": seed, "side": side,
                               "order": len(record), "result": result})
                print(f"{workload} seed {seed} {side}: "
                      f"{'correct' if result['correct'] else 'INCORRECT'}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({"pairs": PAIRS, "seconds": SECONDS, "runs": record},
                                       indent=1))
    lines, ok = judge(runs, spec["end_to_end"])
    print("\n".join(lines))
    print("perf gate: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
