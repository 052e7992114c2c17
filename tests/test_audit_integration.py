"""End-to-end audit of the seed engines over the example/benchmark workloads.

This is the acceptance gate for the verification layer: every canonical
scenario (quickstart, figure workloads, multiprogrammed DEQ, mixed policies,
Theorem 3/4 bound regimes) must produce zero violations, through both the
library API and the CLI entry points.
"""

from __future__ import annotations

import pytest

from repro.verify.scenarios import audit_scenarios, format_suite, run_audit_suite

SCENARIO_NAMES = [s.name for s in audit_scenarios()]


@pytest.fixture(scope="module")
def suite_results():
    return run_audit_suite()


class TestAuditSuite:
    def test_covers_the_canonical_workloads(self):
        assert {
            "quickstart",
            "single-job-sweep",
            "bounds",
            "multiprogrammed-deq",
        } <= set(SCENARIO_NAMES)

    def test_every_scenario_is_clean(self, suite_results):
        dirty = {name: report.summary() for name, report in suite_results if not report.ok}
        assert not dirty, dirty

    def test_every_scenario_ran_checks(self, suite_results):
        for name, report in suite_results:
            assert report.checks, f"scenario {name} audited nothing"

    def test_bounds_scenario_checked_the_theorems(self, suite_results):
        report = dict(suite_results)["bounds"]
        assert report.checked("theorem3-time-bound")
        assert report.checked("theorem4-waste-bound")

    def test_deq_scenario_checked_allocator_properties(self, suite_results):
        report = dict(suite_results)["multiprogrammed-deq"]
        assert report.checked("deq-unfair")
        assert report.checked("reservation")
        assert report.checked("capacity-exceeded")

    def test_roundrobin_scenario_checks_what_the_allocator_declares(
        self, suite_results
    ):
        # RoundRobinAllocator is fair but not non-reserving.
        report = dict(suite_results)["multiprogrammed-roundrobin"]
        assert report.checked("deq-unfair")
        assert not report.checked("reservation")

    def test_format_suite_summarizes(self, suite_results):
        text = format_suite(suite_results)
        assert "all invariants hold" in text
        for name in SCENARIO_NAMES:
            assert name in text


class TestCliEntryPoints:
    def test_audit_subcommand_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["audit"]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_global_audit_flag_runs_suite_after_command(self, capsys):
        from repro.cli import main

        assert main(["--audit", "theorem1"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
