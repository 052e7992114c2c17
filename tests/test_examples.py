"""Every example script must run cleanly end-to-end (reduced settings where
the script exposes them) and write nothing into the checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"
ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
_CACHES = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _checkout_files() -> dict[str, tuple[int, int]]:
    """Size and modification time of every file in the checkout outside
    version control and the interpreter's and test tools' caches."""
    files = {}
    for root, dirs, names in os.walk(REPO_ROOT):
        dirs[:] = [d for d in dirs if d not in _CACHES]
        for name in names:
            stat = os.stat(os.path.join(root, name))
            files[os.path.join(root, name)] = (stat.st_size, stat.st_mtime_ns)
    return files


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    before = _checkout_files()
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        env=ENV,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert _checkout_files() == before, f"{name} wrote into the checkout"
    return proc


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "running time" in proc.stdout
        assert "A-Greedy" in proc.stdout

    def test_single_job_sweep(self):
        proc = run_example("single_job_sweep.py")
        assert proc.returncode == 0, proc.stderr
        assert "running-time improvement" in proc.stdout

    def test_multiprogrammed(self):
        proc = run_example("multiprogrammed.py", "--load", "0.5")
        assert proc.returncode == 0, proc.stderr
        assert "makespan" in proc.stdout
        assert "x M*" in proc.stdout

    def test_control_analysis(self):
        proc = run_example("control_analysis.py", "--parallelism", "6")
        assert proc.returncode == 0, proc.stderr
        assert "convergence rate" in proc.stdout
        assert "oscillation amplitude" in proc.stdout

    def test_profile_replay(self):
        proc = run_example("profile_replay.py", "--segments", "4")
        assert proc.returncode == 0, proc.stderr
        assert "oracle" in proc.stdout

    def test_work_stealing(self):
        proc = run_example("work_stealing.py", "--iterations", "2")
        assert proc.returncode == 0, proc.stderr
        assert "A-Steal" in proc.stdout and "ABP" in proc.stdout

    def test_export_and_replay(self, tmp_path):
        proc = run_example("export_and_replay.py", "--dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "reloaded" in proc.stdout
        assert list(tmp_path.glob("*.json"))

    def test_every_example_has_a_run_test(self):
        runs = {name.removeprefix("test_") for name in vars(TestExamples)}
        assert {script.stem for script in EXAMPLES.glob("*.py")} <= runs

    def test_all_examples_have_docstrings_and_main(self):
        for script in sorted(EXAMPLES.glob("*.py")):
            text = script.read_text()
            assert text.startswith("#!/usr/bin/env python3"), script.name
            assert '"""' in text, script.name
            assert 'if __name__ == "__main__":' in text, script.name
