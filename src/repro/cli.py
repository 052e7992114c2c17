"""Command-line interface: regenerate any of the paper's figures/tables.

Usage::

    python -m repro fig1 [--parallelism 10] [--quanta 16]
    python -m repro fig2
    python -m repro fig4 [--parallelism 10] [--rate 0.2]
    python -m repro fig5 [--factors 2:101:7] [--jobs 50] [--workers N]
                         [--retries K] [--task-timeout S]
    python -m repro fig6 [--sets 200] [--bins 12] [--workers N]
                         [--retries K] [--task-timeout S]
    python -m repro all [--out results] [--scale reduced] [--jobs N]
                        [--resume] [--retries K] [--task-timeout S]
                        [--faults SPEC]
    python -m repro theorem1
    python -m repro bounds
    python -m repro ablation-rate | ablation-quantum | ablation-discipline |
                    ablation-allocator
    python -m repro audit
    python -m repro lint [--format json] [--explain ABGNNN] [paths...]
    python -m repro record-traces [--out fixtures/goldens] [--check]
                                  [--from-experiments SCALE] [--sets N]
    python -m repro verify-traces [--fixtures fixtures/goldens] [--workers N]
                                  [--retries K] [--task-timeout S]
                                  [--faults SPEC] [--format json]
                                  [--shrink-out DIR]
    python -m repro --audit <any command>

Every command prints the rows/series the corresponding paper figure plots.
``audit`` (or the global ``--audit`` flag) replays the example workloads
through the invariant auditor (``repro.verify``) and exits non-zero on any
violation of the paper's model invariants.  ``lint`` runs the
determinism rules (``ABG1xx``) over every file and the numeric rules
``ABG311``/``ABG313`` over the array-kernel modules
(``repro.verify.lint``); ``lint --explain CODE`` describes one rule.
``record-traces`` / ``verify-traces`` drive the golden-trace regression
harness (``repro.goldens``, rules ``ABG401``-``ABG404``): re-recording
exactly the stale fixtures, checking fixture freshness (``--check``),
replaying them on every execution path with a first-divergence diff, and
shrinking failures to minimal reproductions (``--shrink-out``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import NoReturn

from . import experiments as exp
from .runtime.faults import FaultPlan

__all__ = ["build_parser", "main"]


def _parse_range(spec: str) -> list[int]:
    """``a:b[:step]`` → ``range(a, b, step)``; a single integer → ``[a]``."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 2:
        return list(range(int(parts[0]), int(parts[1])))
    if len(parts) == 3:
        return list(range(int(parts[0]), int(parts[1]), int(parts[2])))
    raise argparse.ArgumentTypeError(f"bad range spec {spec!r}")


def _worker_count(value: str) -> int:
    """``--workers``/``--jobs`` validator: an integer >= 0 (0 = all cores)."""
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"worker count must be an integer, got {value!r}"
        ) from None
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 0 (0 means all cores), got {count}"
        )
    return count


def _positive_int(value: str) -> int:
    """Validator for counts that must be at least 1."""
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {value!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {count}")
    return count


def _retry_count(value: str) -> int:
    """``--retries`` validator: an integer >= 0 (0 = fail fast)."""
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"retry count must be an integer, got {value!r}"
        ) from None
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"retry count must be >= 0 (0 disables retries), got {count}"
        )
    return count


def _timeout_seconds(value: str) -> float:
    """``--task-timeout`` validator: a positive number of seconds."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"timeout must be a number of seconds, got {value!r}"
        ) from None
    if not seconds > 0:
        raise argparse.ArgumentTypeError(f"timeout must be > 0 seconds, got {value}")
    return seconds


def _fault_plan(value: str) -> FaultPlan:
    """``--faults`` validator: a ``key=value:...`` fault-plan spec."""
    try:
        return FaultPlan.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rows_table(title: str, rows: list) -> str:
    if not rows:
        return f"{title}\n\n(no rows)"
    columns = tuple(f.name for f in fields(rows[0]))
    return exp.format_table(exp.ExperimentTable(title=title, columns=columns, rows=tuple(rows)))


def _cmd_fig1(args: argparse.Namespace) -> str:
    r = exp.run_fig1(parallelism=args.parallelism, num_quanta=args.quanta)
    lines = [
        f"Figure 1 — A-Greedy request instability (constant parallelism "
        f"{r.parallelism})",
        "",
        exp.format_series("quantum      ", [float(q) for q in r.quanta]),
        exp.format_series("request d(q) ", r.requests),
        exp.format_series("parallelism  ", r.measured_parallelism),
    ]
    return "\n".join(lines)


def _cmd_fig2(args: argparse.Namespace) -> str:
    r = exp.run_fig2()
    return (
        "Figure 2 — B-Greedy quantum measurement\n\n"
        f"T1(q)  = {r.quantum_work}   (paper: {r.paper_work})\n"
        f"Tinf(q) = {r.quantum_span}  (paper: {r.paper_span})\n"
        f"A(q)   = {r.avg_parallelism} (paper: {r.paper_parallelism})\n"
        f"matches paper: {r.matches_paper}"
    )


def _cmd_fig4(args: argparse.Namespace) -> str:
    abg, agreedy = exp.run_fig4(
        parallelism=args.parallelism, convergence_rate=args.rate
    )
    lines = [
        f"Figure 4 — transient behaviour, constant parallelism {abg.parallelism}",
        "",
        "(a) ABG:",
        exp.format_series("  d(q)", abg.requests),
        "",
        "(b) A-Greedy:",
        exp.format_series("  d(q)", agreedy.requests),
    ]
    if args.plot:
        from .report import line_chart

        lines.append("")
        lines.append(
            line_chart(
                {
                    "ABG": list(zip(abg.quanta, abg.requests)),
                    "A-Greedy": list(zip(agreedy.quanta, agreedy.requests)),
                    "parallelism": [
                        (q, float(abg.parallelism)) for q in abg.quanta
                    ],
                },
                title="d(q) per quantum",
                x_label="quantum",
                y_label="processor request",
            )
        )
    return "\n".join(lines)


def _cmd_fig5(args: argparse.Namespace) -> str:
    result = exp.run_fig5(
        factors=_parse_range(args.factors),
        jobs_per_factor=args.jobs,
        workers=args.workers,
        retries=args.retries,
        task_timeout=args.task_timeout,
    )
    if args.csv:
        from .report import write_csv

        write_csv(list(result.points), args.csv)
    out = _rows_table("Figure 5 — individual jobs vs transition factor", list(result.points))
    if args.plot:
        from .report import line_chart

        out += "\n\n" + line_chart(
            {
                "ABG": [(p.transition_factor, p.abg_time_norm) for p in result.points],
                "A-Greedy": [
                    (p.transition_factor, p.agreedy_time_norm) for p in result.points
                ],
            },
            title="Figure 5(a) — running time / Tinf",
            x_label="transition factor",
            y_label="time / Tinf",
        )
        out += "\n\n" + line_chart(
            {
                "ABG": [(p.transition_factor, p.abg_waste_norm) for p in result.points],
                "A-Greedy": [
                    (p.transition_factor, p.agreedy_waste_norm) for p in result.points
                ],
            },
            title="Figure 5(c) — waste / T1",
            x_label="transition factor",
            y_label="waste / T1",
        )
    out += (
        f"\n\nmean A-Greedy/ABG running-time ratio: {result.mean_time_ratio:.3f}"
        f"  (ABG improvement {100 * result.mean_time_improvement:.1f}%; paper: ~20%)"
        f"\nmean A-Greedy/ABG waste ratio:        {result.mean_waste_ratio:.3f}"
        f"  (ABG reduction {100 * result.mean_waste_reduction:.1f}%; paper: ~50%)"
    )
    return out


def _cmd_fig6(args: argparse.Namespace) -> str:
    result = exp.run_fig6(
        num_sets=args.sets,
        workers=args.workers,
        retries=args.retries,
        task_timeout=args.task_timeout,
        group_size=args.group_size,
    )
    bins = exp.bin_by_load(result, num_bins=args.bins)
    if args.csv:
        from .report import write_csv

        write_csv(list(result.points), args.csv)
    out = _rows_table("Figure 6 — job sets vs load (binned)", bins)
    if args.plot:
        from .report import line_chart

        def mid(b: exp.LoadBin) -> float:
            return (b.load_low + b.load_high) / 2

        out += "\n\n" + line_chart(
            {
                "ABG": [(mid(b), b.abg_makespan_norm) for b in bins],
                "A-Greedy": [(mid(b), b.agreedy_makespan_norm) for b in bins],
            },
            title="Figure 6(a) — makespan / M*",
            x_label="load",
            y_label="makespan / M*",
        )
        out += "\n\n" + line_chart(
            {
                "ABG": [(mid(b), b.abg_response_norm) for b in bins],
                "A-Greedy": [(mid(b), b.agreedy_response_norm) for b in bins],
            },
            title="Figure 6(c) — mean response time / R*",
            x_label="load",
            y_label="response / R*",
        )
    light_m, light_r = result.light_load_ratios()
    heavy_m, heavy_r = result.heavy_load_ratios()
    out += (
        f"\n\nlight load (<=1): A-Greedy/ABG makespan {light_m:.3f}, response {light_r:.3f}"
        f"  (paper: 1.10-1.15)"
        f"\nheavy load (>=4): A-Greedy/ABG makespan {heavy_m:.3f}, response {heavy_r:.3f}"
        f"  (paper: ~1.0)"
    )
    return out


def _cmd_giant(args: argparse.Namespace) -> str:
    import time

    from .report import write_csv
    from .sim.multi import simulate_job_set
    from .workloads.giant import artifact_rows, giant_scenario

    scenario = giant_scenario(
        groups=args.groups,
        jobs_per_group=args.jobs_per_group,
        stable_quanta=args.quanta,
    )
    t0 = time.perf_counter()
    result = simulate_job_set(
        scenario.specs,
        scenario.build_allocator(),
        scenario.processors,
        quantum_length=scenario.quantum_length,
        shards=2,  # any N >= 2 picks per-group windows
    )
    simulated = time.perf_counter() - t0
    rows = artifact_rows(result)
    lines = [
        f"giant scenario: {len(scenario.specs)} jobs on P={scenario.processors} "
        f"({args.groups} groups of {scenario.group_size})",
        f"per-group windows: {result.quanta_elapsed} quanta in {simulated:.3f}s "
        f"(makespan {result.makespan:.0f})",
        f"end to end through artifact_rows: {time.perf_counter() - t0:.3f}s",
    ]
    if args.csv:
        path = write_csv(rows, args.csv)
        lines.append(
            f"wrote {len(rows)} per-job rows to {path} "
            f"(end to end through write_csv: {time.perf_counter() - t0:.3f}s)"
        )
    return "\n".join(lines)


def _cmd_theorem1(args: argparse.Namespace) -> str:
    return _rows_table("Theorem 1 — control-theoretic properties", exp.run_theorem1())


def _cmd_bounds(args: argparse.Namespace) -> str:
    return _rows_table(
        "Lemma 2 / Theorems 3-5 — measured vs bounds", exp.run_bounds_check()
    )


def _cmd_ablation_rate(args: argparse.Namespace) -> str:
    return _rows_table("Ablation — convergence rate", exp.run_rate_ablation())


def _cmd_ablation_quantum(args: argparse.Namespace) -> str:
    return _rows_table("Ablation — quantum length", exp.run_quantum_ablation())


def _cmd_ablation_discipline(args: argparse.Namespace) -> str:
    return _rows_table(
        "Ablation — breadth-first vs FIFO greedy", exp.run_discipline_ablation()
    )


def _cmd_ablation_allocator(args: argparse.Namespace) -> str:
    return _rows_table("Ablation — DEQ vs round-robin", exp.run_allocator_ablation())


def _cmd_stealing(args: argparse.Namespace) -> str:
    return _rows_table(
        "Work stealing — ABG vs A-Steal vs ABP", exp.run_stealing_compare()
    )


def _cmd_arrivals(args: argparse.Namespace) -> str:
    return _rows_table(
        "Open system — Poisson arrivals (Theorem 5 makespan setting)",
        exp.run_arrivals(),
    )


def _cmd_trim(args: argparse.Namespace) -> str:
    return _rows_table(
        "Trim analysis demo — speedup vs raw and trimmed availability",
        exp.run_trim_demo(),
    )


def _cmd_all(args: argparse.Namespace) -> str:
    from .experiments.runner import resume_status, run_everything

    if args.resume:
        completed, total = resume_status(args.out, args.scale)
        print(
            f"resuming: {completed}/{total} experiments already checkpointed "
            f"({100.0 * completed / total:.0f}%)"
        )
    result = run_everything(
        args.out,
        scale=args.scale,
        jobs=args.jobs,
        resume=args.resume,
        retries=args.retries,
        task_timeout=args.task_timeout,
        faults=args.faults,
    )
    lines = [f"ran {len(result.outcomes)} experiments at scale '{result.scale}' "
             f"in {result.total_seconds:.1f}s"]
    for o in result.outcomes:
        lines.append(f"  {o.name:<22} {o.rows:>4} rows  {o.seconds:>7.2f}s  -> {o.artifact}")
    lines.append(f"report: {result.report_path}")
    return "\n".join(lines)


def _cmd_controllers(args: argparse.Namespace) -> str:
    return _rows_table(
        "Controller comparison — adaptive vs fixed gain vs A-Greedy",
        exp.run_controller_compare(),
    )


def _cmd_overhead(args: argparse.Namespace) -> str:
    return _rows_table(
        "Reallocation-overhead study (cost of A-Greedy's instability)",
        exp.run_overhead_study(),
    )


def _cmd_characteristics(args: argparse.Namespace) -> str:
    return _rows_table(
        "Job characteristics study (Section 9 future work)",
        exp.run_characteristics_study(),
    )


def _run_audit_suite() -> tuple[str, int]:
    """Run the canonical audit scenarios; exit status 1 on any violation."""
    from .verify.scenarios import format_suite, run_audit_suite

    results = run_audit_suite()
    failed = any(not report.ok for _, report in results)
    return format_suite(results), 1 if failed else 0


def _usage_error(message: str) -> NoReturn:
    """Print ``error: <message>`` to stderr and exit 2 (a usage error)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _cmd_audit(args: argparse.Namespace) -> str:
    text, status = _run_audit_suite()
    if status:
        print(text)
        raise SystemExit(status)
    return text


def _cmd_lint(args: argparse.Namespace) -> str:
    import json

    from .verify.findings import (
        RULES,
        exit_code,
        explain,
        findings_payload,
        render_findings,
    )
    from .verify.lint import lint_paths

    if args.explain is not None:
        text = explain(args.explain)
        if text is None:
            _usage_error(
                f"unknown rule {args.explain!r}; valid codes: {', '.join(RULES)}"
            )
        return text

    try:
        findings = lint_paths(args.paths or [Path(__file__).parent])
    except FileNotFoundError as exc:
        _usage_error(str(exc))

    if args.format == "json":
        text = json.dumps(findings_payload(findings), indent=1)
    else:
        text = render_findings(findings)
    status = exit_code(findings)
    if status:
        print(text)
        raise SystemExit(status)
    return text


def _cmd_record_traces(args: argparse.Namespace) -> str:
    from .goldens import check_freshness, record_fixtures
    from .verify.findings import exit_code, render_findings

    out = Path(args.out)
    scenarios = None
    if args.from_experiments is not None:
        from .experiments.runner import experiment_scenarios

        scenarios = experiment_scenarios(args.from_experiments, args.sets)
    if args.check:
        findings = check_freshness(out, scenarios)
        text = render_findings(findings)
        status = exit_code(findings)
        if status:
            print(text)
            raise SystemExit(status)
        return text
    written, fresh = record_fixtures(out, scenarios)
    lines = [
        f"re-recorded {len(written)} stale fixture(s) under {out}, "
        f"left {len(fresh)} green fixture(s) untouched:"
    ]
    lines.extend(f"  stale {path}" for path in written)
    lines.extend(f"  green {path}" for path in fresh)
    return "\n".join(lines)


def _cmd_verify_traces(args: argparse.Namespace) -> str:
    import json

    from .goldens import (
        ScenarioSpec,
        fixture_paths,
        regression_bundle,
        shrink_scenario,
        verify_traces,
    )

    fixtures = fixture_paths(args.fixtures)
    if not fixtures:
        _usage_error(f"no golden fixtures found under {args.fixtures!r}")
    report = verify_traces(
        fixtures,
        workers=args.workers,
        retries=args.retries if args.retries is not None else 2,
        task_timeout=args.task_timeout,
        faults=args.faults,
    )
    if args.format == "json":
        text = json.dumps(report.payload(), indent=1)
    else:
        text = report.render()
    if report.passed:
        return text
    if args.shrink_out is not None:
        from .io.traces import load_golden_bundle, save_golden_bundle

        shrink_dir = Path(args.shrink_out)
        shrink_dir.mkdir(parents=True, exist_ok=True)
        shrunk_lines: list[str] = []
        failing = sorted(
            {o["fixture"] for o in report.outcomes if o["status"] == "fail"}
        )
        for fixture in failing:
            spec = ScenarioSpec.from_dict(load_golden_bundle(fixture).scenario)
            result = shrink_scenario(spec)
            if result is None:
                shrunk_lines.append(
                    f"  {spec.scenario_id}: not shrinkable (all execution "
                    "paths agree; behaviour changed consistently — "
                    "re-record if intended)"
                )
                continue
            bundle = regression_bundle(result, shrunk_from=fixture)
            path = save_golden_bundle(
                shrink_dir / f"{result.spec.scenario_id}-min.json", bundle
            )
            shrunk_lines.append(f"  {path}: {result.describe()}")
        if shrunk_lines:
            text += "\n\nshrunk reproductions:\n" + "\n".join(shrunk_lines)
    print(text)
    raise SystemExit(1)


def _add_resilience_arguments(p: argparse.ArgumentParser) -> None:
    """The shared ``--retries``/``--task-timeout`` knobs of supervised fan-out."""
    p.add_argument(
        "--retries",
        type=_retry_count,
        default=None,
        help="failed-attempt budget per work unit before the run aborts "
        "(default: 2; retries re-run the same pure unit, so results are "
        "unchanged)",
    )
    p.add_argument(
        "--task-timeout",
        type=_timeout_seconds,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock limit; a unit past its deadline is killed "
        "with its pool and retried (default: none for fig5/fig6; per-scale "
        "for `all` — 120s smoke, 900s reduced, 3600s full)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abg-repro",
        description="Reproduce the evaluation of 'Adaptive B-Greedy (ABG)' (IPPS 2008).",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="after the command, replay the example workloads through the "
        "invariant auditor and fail on any violation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="A-Greedy request instability")
    p.add_argument("--parallelism", type=int, default=10)
    p.add_argument("--quanta", type=int, default=16)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="B-Greedy quantum measurement example")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig4", help="ABG vs A-Greedy transient behaviour")
    p.add_argument("--parallelism", type=int, default=10)
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--plot", action="store_true", help="draw an ASCII chart")
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("fig5", help="individual jobs vs transition factor")
    p.add_argument("--factors", default="2:101:7", help="a:b[:step] transition factors")
    p.add_argument("--jobs", type=_positive_int, default=50, help="jobs per factor")
    p.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="parallel worker processes (0 = all cores); results are "
        "bit-identical at any worker count",
    )
    _add_resilience_arguments(p)
    p.add_argument("--plot", action="store_true", help="draw ASCII charts")
    p.add_argument("--csv", default=None, help="write per-factor rows to CSV")
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser("fig6", help="job sets vs load under DEQ")
    p.add_argument("--sets", type=_positive_int, default=200, help="number of job sets")
    p.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="parallel worker processes (0 = all cores); results are "
        "bit-identical at any worker count",
    )
    _add_resilience_arguments(p)
    p.add_argument("--bins", type=_positive_int, default=12)
    p.add_argument(
        "--group-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="run every set under hierarchical allocation with groups of "
        "this many processors (default: centralized DEQ)",
    )
    p.add_argument("--plot", action="store_true", help="draw ASCII charts")
    p.add_argument("--csv", default=None, help="write per-set rows to CSV")
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser(
        "giant",
        help="giant-scale hierarchical scenario on per-group windows "
        "(thousands of jobs, P in the tens of thousands); the CSV artifact "
        "is byte-identical to the serial reference loop's",
    )
    p.add_argument(
        "--groups", type=_positive_int, default=32, help="allocation groups"
    )
    p.add_argument(
        "--jobs-per-group", type=_positive_int, default=128, help="jobs per group"
    )
    p.add_argument(
        "--quanta",
        type=_positive_int,
        default=800,
        help="quanta a stable job runs (sets the horizon)",
    )
    p.add_argument("--csv", default=None, help="write per-job rows to CSV")
    p.set_defaults(func=_cmd_giant)

    p = sub.add_parser("theorem1", help="control-theoretic property table")
    p.set_defaults(func=_cmd_theorem1)

    p = sub.add_parser("bounds", help="Lemma 2 / Theorems 3-5 bound checks")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("ablation-rate", help="convergence-rate sweep")
    p.set_defaults(func=_cmd_ablation_rate)

    p = sub.add_parser("ablation-quantum", help="quantum-length sweep + adaptive")
    p.set_defaults(func=_cmd_ablation_quantum)

    p = sub.add_parser("ablation-discipline", help="breadth-first vs FIFO greedy")
    p.set_defaults(func=_cmd_ablation_discipline)

    p = sub.add_parser("ablation-allocator", help="DEQ vs round-robin")
    p.set_defaults(func=_cmd_ablation_allocator)

    p = sub.add_parser("stealing", help="ABG vs A-Steal vs ABP (work stealing)")
    p.set_defaults(func=_cmd_stealing)

    p = sub.add_parser("arrivals", help="open system with Poisson releases")
    p.set_defaults(func=_cmd_arrivals)

    p = sub.add_parser(
        "characteristics", help="alternative job characteristics study"
    )
    p.set_defaults(func=_cmd_characteristics)

    p = sub.add_parser("overhead", help="reallocation-overhead sweep")
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser(
        "controllers", help="adaptive vs fixed-gain integral controllers"
    )
    p.set_defaults(func=_cmd_controllers)

    p = sub.add_parser("trim", help="trim-analysis speedup demonstration")
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("all", help="run every experiment, write JSON + REPORT.md")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument(
        "--scale", choices=("smoke", "reduced", "full"), default="reduced"
    )
    p.add_argument(
        "--jobs",
        type=_worker_count,
        default=1,
        help="parallel worker processes for the experiments (0 = all "
        "cores); the JSON artifacts are bit-identical at any job count",
    )
    _add_resilience_arguments(p)
    p.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="replay experiments already checkpointed under <out>/.journal "
        "instead of re-running them (--no-resume clears the journal first)",
    )
    p.add_argument(
        "--faults",
        type=_fault_plan,
        default=None,
        metavar="SPEC",
        help="inject a deterministic fault schedule, e.g. "
        "'seed=11:rate=0.4:kinds=crash,transient:max-failures=2' "
        "(chaos testing; artifacts stay bit-identical because retries "
        "re-run the same pure work units)",
    )
    p.set_defaults(func=_cmd_all)

    p = sub.add_parser(
        "audit",
        help="replay the example workloads through the invariant auditor "
        "(exit 1 on any violation)",
    )
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "lint",
        help="run the determinism lint (ABG1xx) and the kernel-module "
        "numeric rules (ABG311, ABG313)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to analyze (default: the repro package)",
    )
    p.add_argument(
        "--explain",
        metavar="ABGNNN",
        default=None,
        help="print one rule's summary, hazard, example and suppression "
        "guidance and exit without analyzing anything",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json follows the schema in docs/STATIC_ANALYSIS.md)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "record-traces",
        help="re-record the golden trace fixtures that the current tree "
        "would change (or --check that none would change)",
    )
    p.add_argument(
        "--out",
        default="fixtures/goldens",
        metavar="DIR",
        help="fixture directory (default: fixtures/goldens)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="do not write anything; fail (ABG403/ABG404) on every fixture "
        "that re-recording from the current tree would rewrite",
    )
    p.add_argument(
        "--from-experiments",
        choices=("smoke", "reduced", "full"),
        default=None,
        metavar="SCALE",
        help="instead of the default registry, record (or --check) the "
        "first --sets job sets of the fig6 sweep at this scale",
    )
    p.add_argument(
        "--sets",
        type=_positive_int,
        default=2,
        help="job sets to record with --from-experiments (default: 2)",
    )
    p.set_defaults(func=_cmd_record_traces)

    p = sub.add_parser(
        "verify-traces",
        help="replay every committed golden fixture on both execution paths "
        "(serial/superstep) and fail with the first "
        "diverging quantum and a field-level diff",
    )
    p.add_argument(
        "--fixtures",
        default="fixtures/goldens",
        metavar="DIR",
        help="fixture directory to replay (default: fixtures/goldens)",
    )
    p.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="parallel worker processes (0 = all cores); the report is "
        "byte-identical at any worker count",
    )
    _add_resilience_arguments(p)
    p.add_argument(
        "--faults",
        type=_fault_plan,
        default=None,
        metavar="SPEC",
        help="inject a deterministic fault schedule into the replay pool "
        "(chaos testing; the verdict stays byte-identical because every "
        "replay unit is pure)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    p.add_argument(
        "--shrink-out",
        default=None,
        metavar="DIR",
        help="on failure, delta-debug each failing fixture's job set to a "
        "minimal reproduction and write <id>-min.json fixtures here",
    )
    p.set_defaults(func=_cmd_verify_traces)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(args.func(args))
    except RuntimeError as exc:
        # Only ``repro all`` raises RunInterrupted, after it has loaded the
        # runner; importing the runner here keeps every other command off
        # the experiment modules it pulls in.
        from .experiments.runner import RunInterrupted

        if not isinstance(exc, RunInterrupted):
            raise
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    if args.audit and args.command != "audit":
        text, status = _run_audit_suite()
        print()
        print(text)
        return status
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
