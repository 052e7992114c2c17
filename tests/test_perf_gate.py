"""The perf gate's decision (``tools/perf_gate.py``) on synthetic runs
against the real ``BENCHMARK.json`` bounds."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perf_gate", ROOT / "tools" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PARENT = {"wall_norm_s": 1.0, "job_quanta_per_norm_s": 1000.0, "setup_s": 0.5, "peak_rss_mb": 100.0}


def _run(correct: bool = True, **scale: float) -> dict:
    """One run's result: the parent's metric values, each multiplied by
    ``scale[name]`` when given."""
    return {
        "correct": correct,
        "metrics": {
            name: {"value": value * scale.get(name, 1.0), "unit": ""}
            for name, value in PARENT.items()
        },
    }


def _judge(*change_runs: dict) -> bool:
    runs = {"giant": {"parent": [_run() for _ in range(5)], "change": list(change_runs)}}
    _, ok = perf_gate.judge(runs, END_TO_END)
    return ok


def test_within_every_bound_passes():
    assert _judge(*[
        _run(wall_norm_s=1.2, job_quanta_per_norm_s=0.8, setup_s=1.2, peak_rss_mb=1.15)
        for _ in range(5)
    ])


@pytest.mark.parametrize(
    "metric, factor",
    [("wall_norm_s", 1.3), ("job_quanta_per_norm_s", 0.7), ("setup_s", 1.3), ("peak_rss_mb", 1.25)],
)
def test_worse_beyond_bound_fails(metric, factor):
    assert not _judge(*[_run(**{metric: factor}) for _ in range(5)])


def test_judged_on_the_median():
    outliers = [_run(wall_norm_s=3.0), _run(wall_norm_s=3.0)]
    assert _judge(*outliers, *[_run() for _ in range(3)])
    assert not _judge(*outliers, _run(wall_norm_s=3.0), _run(), _run())


def test_any_incorrect_run_fails():
    assert not _judge(*[_run() for _ in range(4)], _run(correct=False))
    runs = {"fig6": {"parent": [_run(correct=False)], "change": [_run()]}}
    assert not perf_gate.judge(runs, END_TO_END)[1]


def test_improvement_never_fails():
    assert _judge(*[
        _run(wall_norm_s=0.1, job_quanta_per_norm_s=10.0, setup_s=0.1, peak_rss_mb=0.1)
        for _ in range(5)
    ])


def test_table_reports_quartiles_of_both_sides():
    runs = {"giant": {"parent": [_run(wall_norm_s=f) for f in (1, 2, 3, 4, 5)],
                      "change": [_run() for _ in range(5)]}}
    lines, _ = perf_gate.judge(runs, END_TO_END)
    [row] = [line for line in lines if "wall_norm_s" in line]
    assert "3 [1.5, 4.5]" in row and "1 [1, 1]" in row


def test_table_reports_pair_ratios_and_pairs_won():
    runs = {"giant": {"parent": [_run() for _ in range(4)],
                      "change": [_run(wall_norm_s=f) for f in (0.5, 0.8, 1.25, 0.9)]}}
    lines, _ = perf_gate.judge(runs, END_TO_END)
    [row] = [line for line in lines if "wall_norm_s" in line]
    assert "3 of 4" in row and row.endswith("0.500 0.800 1.250 0.900")
    [row] = [line for line in lines if "job_quanta_per_norm_s" in line]
    assert "0 of 4" in row


def test_sign_test_p_values():
    assert perf_gate.sign_test_p(5, 0) == perf_gate.sign_test_p(0, 5) == 0.0625
    assert perf_gate.sign_test_p(0, 0) == 1.0
    assert perf_gate.sign_test_p(9, 1) == pytest.approx(22 / 1024)
    assert perf_gate.sign_test_p(3, 2) == 1.0


def test_table_reports_the_sign_test_without_ties():
    runs = {"giant": {"parent": [_run() for _ in range(5)], "change": [_run(wall_norm_s=0.9) for _ in range(5)]}}
    lines, _ = perf_gate.judge(runs, END_TO_END)
    [row] = [line for line in lines if "wall_norm_s" in line]
    assert "5 of 5    0.0625" in row
    # Every pair of an unchanged metric is a tie, dropped from the test.
    [row] = [line for line in lines if "setup_s" in line]
    assert "0 of 5    1.0000" in row


def test_out_file_holds_every_run_in_order(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((workload, seed, checkout))
        return _run(wall_norm_s=0.9 if checkout == perf_gate.ROOT else 1.0)

    monkeypatch.setattr(perf_gate, "run_once", fake_run)
    parent = tmp_path / "parent"
    (parent / "src" / "repro").mkdir(parents=True)
    out = tmp_path / "gate.json"
    assert perf_gate.main([str(parent), "--out", str(out)]) == 0
    capsys.readouterr()
    runs = json.loads(out.read_text())["runs"]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert len(runs) == len(calls) == 2 * perf_gate.PAIRS * len(workloads)
    assert [r["order"] for r in runs] == list(range(len(runs)))
    assert [(r["workload"], r["seed"]) for r in runs] == [(w, s) for w, s, _ in calls]
    first = [r["side"] for r in runs if r["workload"] == workloads[0]][::2]
    assert first == ["parent", "change"] * (perf_gate.PAIRS // 2) + ["parent"] * (perf_gate.PAIRS % 2)
    assert all(r["result"]["metrics"]["wall_norm_s"]["value"] == (0.9 if r["side"] == "change" else 1.0)
               for r in runs)
