"""Tests for the batch experiment runner."""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    DEFAULT_TASK_TIMEOUTS,
    SCALES,
    default_task_timeout,
    resume_status,
    run_everything,
)


class TestRunner:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("results")
        return run_everything(out, scale="smoke"), out

    def test_all_experiments_ran(self, result):
        runner_result, _ = result
        names = [o.name for o in runner_result.outcomes]
        assert "fig2" in names and "fig5" in names and "fig6" in names
        assert "controllers" in names and "stealing" in names
        assert len(names) == len(set(names)) >= 17

    def test_artifacts_written_and_parseable(self, result):
        runner_result, out = result
        for outcome in runner_result.outcomes:
            data = json.loads((out / f"{outcome.name}.json").read_text())
            assert isinstance(data, list)
            assert len(data) == outcome.rows
            assert outcome.rows >= 1

    def test_report_written(self, result):
        runner_result, out = result
        report = (out / "REPORT.md").read_text()
        assert runner_result.report_path == out / "REPORT.md"
        assert "## fig5" in report
        assert "## bounds" in report
        assert "scale: smoke" in report

    def test_total_time_positive(self, result):
        runner_result, _ = result
        assert runner_result.total_seconds > 0

    def test_unknown_scale_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_everything(tmp_path, scale="galactic")

    def test_resume_status_fresh_dir(self, tmp_path):
        completed, total = resume_status(tmp_path, scale="smoke")
        assert completed == 0
        assert total >= 17

    def test_resume_status_after_full_run(self, result):
        _, out = result
        completed, total = resume_status(out, scale="smoke")
        assert completed == total >= 17

    def test_resume_status_scale_mismatch(self, result):
        """A journal written at one scale replays nothing at another (the
        journal keys embed the scale and experiment parameters)."""
        _, out = result
        completed, _total = resume_status(out, scale="reduced")
        assert completed == 0

    def test_scales_constant(self):
        assert SCALES == ("smoke", "reduced", "full")


class TestRunnerCli:
    def test_cli_all_smoke(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["all", "--out", str(tmp_path), "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "ran 17 experiments" in out
        assert (tmp_path / "REPORT.md").exists()

    def test_cli_resume_reports_checkpoint_progress(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["all", "--out", str(tmp_path), "--scale", "smoke"]) == 0
        capsys.readouterr()
        assert (
            main(["all", "--resume", "--out", str(tmp_path), "--scale", "smoke"])
            == 0
        )
        out = capsys.readouterr().out
        assert "resuming: " in out
        assert "(100%)" in out  # everything journaled -> full replay


class TestTaskTimeoutDefaults:
    def test_every_scale_has_a_default(self):
        assert set(DEFAULT_TASK_TIMEOUTS) == set(SCALES)

    def test_defaults_grow_with_scale(self):
        assert default_task_timeout("smoke") == 120.0
        assert default_task_timeout("reduced") == 900.0
        assert default_task_timeout("full") == 3600.0
        assert (
            default_task_timeout("smoke")
            < default_task_timeout("reduced")
            < default_task_timeout("full")
        )

    def test_unknown_scale_has_no_default(self):
        assert default_task_timeout("galactic") is None

    def _capture_map(self, monkeypatch) -> dict:
        captured: dict = {}

        def fake_map(fn, items, **kwargs):
            captured.update(kwargs)
            return []

        monkeypatch.setattr(runner_mod, "map_deterministic", fake_map)
        return captured

    def test_run_everything_applies_scale_default(self, tmp_path, monkeypatch):
        captured = self._capture_map(monkeypatch)
        run_everything(tmp_path, scale="smoke")
        assert captured["task_timeout"] == 120.0

    def test_run_everything_honors_explicit_timeout(self, tmp_path, monkeypatch):
        captured = self._capture_map(monkeypatch)
        run_everything(tmp_path, scale="smoke", task_timeout=7.5)
        assert captured["task_timeout"] == 7.5
