"""Replay-under-faults: the verify-traces verdict must be byte-identical
with fault injection on and off (satellite of the golden-trace harness)."""

from __future__ import annotations

import pytest

from repro.core.abg import AControl
from repro.goldens import (
    ExplicitJob,
    ScenarioSpec,
    fixture_paths,
    record_fixtures,
    verify_traces,
)
from repro.runtime.faults import FAULTS_ENV_VAR, FaultPlan


def small_specs() -> list[ScenarioSpec]:
    def spec(scenario_id: str, widths: tuple[int, ...]) -> ScenarioSpec:
        return ScenarioSpec(
            scenario_id=scenario_id,
            policy="abg",
            policy_params=(("convergence_rate", 0.2),),
            allocator="deq",
            processors=4,
            quantum_length=50,
            max_quanta=10_000,
            jobs=tuple(
                ExplicitJob(
                    job_id=i, release_time=0, phases=((w, 120), (1, 60))
                )
                for i, w in enumerate(widths)
            ),
        )

    return [spec("faults-a", (1, 3)), spec("faults-b", (2, 2, 4))]


def hier_spec() -> ScenarioSpec:
    """Two groups of 8 processors with staggered releases: the ``superstep``
    replay runs it on per-group windows."""
    return ScenarioSpec(
        scenario_id="faults-hier",
        policy="abg",
        policy_params=(("convergence_rate", 0.2),),
        allocator="hier",
        processors=16,
        quantum_length=50,
        max_quanta=10_000,
        jobs=tuple(
            ExplicitJob(
                job_id=i, release_time=50 * i, phases=((w, 120), (1, 60))
            )
            for i, w in enumerate((1, 3, 6, 2, 5))
        ),
    )


@pytest.fixture()
def fixtures(tmp_path):
    record_fixtures(tmp_path, small_specs())
    return fixture_paths(tmp_path)


class TestVerdictUnderFaults:
    def test_pass_report_identical_with_crash_and_transient_faults(self, fixtures):
        clean = verify_traces(fixtures, workers=2, retries=4)
        faulted = verify_traces(
            fixtures,
            workers=2,
            retries=4,
            faults=FaultPlan(
                seed=11,
                rate=0.45,
                kinds=("crash", "transient"),
                max_failures=2,
            ),
        )
        assert clean.passed and faulted.passed
        assert faulted.render() == clean.render()
        assert faulted.payload() == clean.payload()

    def test_pass_report_identical_when_hung_workers_are_reaped(self, fixtures):
        subset = fixtures[:1]
        clean = verify_traces(subset, workers=2, retries=3)
        faulted = verify_traces(
            subset,
            workers=2,
            retries=3,
            task_timeout=0.5,
            faults=FaultPlan(
                seed=3,
                rate=0.6,
                kinds=("hang",),
                max_failures=1,
                hang_seconds=2.0,
            ),
        )
        assert faulted.render() == clean.render()
        assert faulted.payload() == clean.payload()

    def test_fail_report_identical_under_faults(self, fixtures, monkeypatch):
        # workers=1 keeps replay in-process so the seeded kernel mutation is
        # visible; in-process crash/hang faults demote to transients and the
        # retry loop still converges on the same FAIL verdict
        orig = AControl.next_request_batch

        def drifted(self, **kwargs):
            out = orig(self, **kwargs)
            return None if out is None else out + 0.5

        monkeypatch.setattr(AControl, "next_request_batch", drifted)
        clean = verify_traces(fixtures, workers=1, retries=4)
        faulted = verify_traces(
            fixtures,
            workers=1,
            retries=4,
            faults=FaultPlan(
                seed=11,
                rate=0.45,
                kinds=("crash", "transient"),
                max_failures=2,
            ),
        )
        assert not clean.passed and not faulted.passed
        assert {o["status"] for o in clean.outcomes} == {"pass", "fail"}
        assert faulted.render() == clean.render()
        assert faulted.payload() == clean.payload()

    def test_cli_fault_flags_round_trip(self, fixtures, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "verify-traces",
            "--fixtures",
            str(tmp_path),
            "--workers",
            "2",
            "--retries",
            "4",
        ]
        assert main(argv) == 0
        clean_text = capsys.readouterr().out
        assert (
            main(
                argv
                + ["--faults", "seed=11:rate=0.45:kinds=crash,transient:max-failures=2"]
            )
            == 0
        )
        assert capsys.readouterr().out == clean_text


class TestHierarchicalUnderAmbientFaults:
    def test_pass_report_identical_under_ambient_plan(self, tmp_path, monkeypatch):
        """An ambient plan fires on the replay units only, never inside the
        per-group windows of a replay, so ``retries >= max-failures``
        completes with the clean report."""
        record_fixtures(tmp_path, [hier_spec()])
        fixtures = fixture_paths(tmp_path)
        clean = verify_traces(fixtures, retries=5)
        monkeypatch.setenv(
            FAULTS_ENV_VAR, "seed=3:rate=1.0:kinds=transient:max-failures=5"
        )
        faulted = verify_traces(fixtures, retries=5)
        assert clean.passed and faulted.passed
        assert faulted.render() == clean.render()
        assert faulted.payload() == clean.payload()
