"""The perf-baseline harness: scenario registry, BENCH_<rev>.json round-trip,
and the regression gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    BenchReport,
    ScenarioTiming,
    SCENARIOS,
    compare_memory,
    compare_reports,
    load_report,
    report_payload,
    run_bench,
    scenario_names,
    write_report,
)
from repro.bench import harness


def _timing(
    name: str,
    *,
    seconds: float = 0.05,
    normalized: float = 1.0,
    peak_bytes: int = 0,
) -> ScenarioTiming:
    return ScenarioTiming(
        name=name,
        description="",
        seconds=seconds,
        units=100,
        units_per_second=100 / seconds,
        normalized=normalized,
        repeats=1,
        peak_bytes=peak_bytes,
    )


def _report(rev: str, normalized: dict[str, float], scale: str = "smoke") -> BenchReport:
    r = BenchReport(rev=rev, scale=scale, calibration_seconds=0.05)
    for name, norm in normalized.items():
        r.timings.append(_timing(name, normalized=norm))
    return r


class TestScenarios:
    def test_registry_names_unique(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        assert "explicit-reference" in names
        assert "batched-kernel" in names
        assert "multi-serial" in names
        assert "multi-batched" in names
        assert "multi-superstep" in names
        assert "multi-superstep-off" in names
        assert "fig6-full" in names

    @pytest.mark.slow
    def test_smoke_run_covers_every_scenario(self):
        report = run_bench(scale="smoke", repeats=1, rev="test")
        assert {t.name for t in report.timings} == set(scenario_names())
        for t in report.timings:
            assert t.seconds > 0
            assert t.units > 0
            assert t.normalized > 0

    @pytest.mark.slow
    def test_batched_kernel_at_least_5x_reference(self):
        """The acceptance claim, measured through the harness itself."""
        report = run_bench(scale="smoke", repeats=3, rev="test")
        ref = report.timing("explicit-reference")
        bat = report.timing("batched-kernel")
        assert ref is not None and bat is not None
        assert ref.seconds / bat.seconds > 5

    @pytest.mark.slow
    def test_superstep_at_least_2x_per_quantum(self):
        """The superstep acceptance claim: ≥2x over the per-quantum batched
        path on the stable-allocation workload, through the harness."""
        report = run_bench(scale="smoke", repeats=3, rev="test")
        off = report.timing("multi-superstep-off")
        on = report.timing("multi-superstep")
        assert off is not None and on is not None
        assert off.units == on.units  # identical work by construction
        assert off.seconds / on.seconds > 2

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_bench(scale="galactic")


class TestReportRoundTrip:
    def test_write_then_load(self, tmp_path: Path):
        report = _report("abc123", {"x": 1.5, "y": 0.2})
        path = write_report(report, tmp_path)
        assert path.name == "BENCH_abc123.json"
        loaded = load_report(path)
        assert loaded.rev == report.rev
        assert loaded.scale == report.scale
        assert loaded.timings == report.timings

    def test_payload_includes_speedups_vs_baseline(self):
        base = _report("old", {"x": 2.0})
        cur = _report("new", {"x": 1.0})
        payload = report_payload(cur, base)
        assert payload["baseline_rev"] == "old"
        assert payload["speedup_vs_baseline"]["x"] == pytest.approx(2.0)

    def test_schema_mismatch_rejected(self, tmp_path: Path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError):
            load_report(bad)

    def test_peak_bytes_roundtrip(self, tmp_path: Path):
        report = _report("mem", {"x": 1.0})
        report.timings[0] = ScenarioTiming(
            name="x",
            description="",
            seconds=0.05,
            units=100,
            units_per_second=2000.0,
            normalized=1.0,
            repeats=1,
            peak_bytes=123456,
        )
        loaded = load_report(write_report(report, tmp_path))
        assert loaded.timings[0].peak_bytes == 123456

    def test_schema1_report_loads_with_zero_peak(self, tmp_path: Path):
        """Reports written before peak-memory tracking (schema 1, no
        peak_bytes key) still load; peak reads as 0."""
        legacy = {
            "schema": 1,
            "rev": "old",
            "scale": "smoke",
            "calibration_seconds": 0.05,
            "scenarios": [
                {
                    "name": "x",
                    "description": "",
                    "seconds": 0.05,
                    "units": 100,
                    "units_per_second": 2000.0,
                    "normalized": 1.0,
                    "repeats": 1,
                }
            ],
        }
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(legacy))
        loaded = load_report(path)
        assert loaded.timings[0].peak_bytes == 0
        assert loaded.timings[0].normalized == 1.0

    def test_provenance_roundtrip(self, tmp_path: Path):
        report = _report("prov", {"x": 1.0})
        report.nproc = 2
        report.dirty = True
        payload = report_payload(report)
        assert (payload["nproc"], payload["dirty"]) == (2, True)
        loaded = load_report(write_report(report, tmp_path))
        assert (loaded.nproc, loaded.dirty) == (2, True)

    def test_run_bench_stamps_provenance(self, monkeypatch: pytest.MonkeyPatch):
        monkeypatch.setattr(harness, "SCENARIOS", ())
        monkeypatch.setattr(harness, "_git", lambda *args: " M src/x.py")
        report = run_bench(scale="smoke", repeats=1, rev="r")
        assert report.dirty is True
        assert report.nproc is not None and report.nproc >= 1
        monkeypatch.setattr(harness, "_git", lambda *args: "")
        assert run_bench(scale="smoke", repeats=1, rev="r").dirty is False
        # outside git
        monkeypatch.setattr(harness, "_git", lambda *args: None)
        assert run_bench(scale="smoke", repeats=1, rev="r").dirty is None

    def test_report_without_provenance_loads(self, tmp_path: Path):
        """Reports written before the nproc/dirty stamp (the committed
        baselines among them) still load; both read as unknown."""
        payload = report_payload(_report("old", {"x": 1.0}))
        del payload["nproc"], payload["dirty"]
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(payload))
        report = load_report(path)
        assert report.nproc is None and report.dirty is None

    def test_committed_baselines_record_peak_memory(self):
        """The refreshed baselines carry schema-2 peak_bytes measurements."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_baseline_smoke.json"
        report = load_report(path)
        assert all(t.peak_bytes > 0 for t in report.timings)

    def test_committed_baselines_load(self):
        """The baselines committed in benchmarks/ stay loadable and cover
        the current scenario registry."""
        for name in ("BENCH_baseline.json", "BENCH_baseline_smoke.json"):
            path = Path(__file__).resolve().parents[1] / "benchmarks" / name
            report = load_report(path)
            assert {t.name for t in report.timings} == set(scenario_names())


class TestRegressionGate:
    def test_no_regression_within_tolerance(self):
        base = _report("old", {"x": 1.0})
        cur = _report("new", {"x": 1.1})
        assert compare_reports(cur, base, max_regression=0.2) == []

    def test_regression_beyond_gate_flagged(self):
        base = _report("old", {"x": 1.0})
        cur = _report("new", {"x": 1.5})
        regs = compare_reports(cur, base, max_regression=0.2)
        assert [r.scenario for r in regs] == ["x"]
        assert regs[0].slowdown == pytest.approx(1.5)

    def test_noise_floor_skips_tiny_timings(self):
        base = _report("old", {"x": 1.0})
        cur = _report("new", {"x": 9.0})
        cur.timings[0] = _timing("x", seconds=0.0001, normalized=9.0)
        assert compare_reports(cur, base, max_regression=0.2) == []

    def test_new_scenarios_skipped(self):
        base = _report("old", {"x": 1.0})
        cur = _report("new", {"x": 1.0, "brand-new": 5.0})
        assert compare_reports(cur, base) == []

    def test_scale_mismatch_rejected(self):
        base = _report("old", {"x": 1.0}, scale="default")
        cur = _report("new", {"x": 1.0}, scale="smoke")
        with pytest.raises(ValueError):
            compare_reports(cur, base)

    def test_improvements_never_flagged(self):
        base = _report("old", {"x": 5.0})
        cur = _report("new", {"x": 0.5})
        assert compare_reports(cur, base) == []


def _mem_report(rev: str, peaks: dict[str, int], scale: str = "smoke") -> BenchReport:
    r = BenchReport(rev=rev, scale=scale, calibration_seconds=0.05)
    for name, peak in peaks.items():
        r.timings.append(_timing(name, peak_bytes=peak))
    return r


class TestMemoryGate:
    MB = 1_000_000

    def test_growth_within_gate_passes(self):
        base = _mem_report("old", {"x": 10 * self.MB})
        cur = _mem_report("new", {"x": 12 * self.MB})
        assert compare_memory(cur, base, max_regression=0.25) == []

    def test_growth_beyond_gate_flagged(self):
        base = _mem_report("old", {"x": 10 * self.MB})
        cur = _mem_report("new", {"x": 13 * self.MB})
        regs = compare_memory(cur, base, max_regression=0.25)
        assert [r.scenario for r in regs] == ["x"]
        assert regs[0].growth == pytest.approx(1.3)
        assert regs[0].baseline_peak_bytes == 10 * self.MB
        assert regs[0].current_peak_bytes == 13 * self.MB

    def test_small_footprints_below_floor_skipped(self):
        base = _mem_report("old", {"x": 100_000})
        cur = _mem_report("new", {"x": 300_000})  # 3x, but under min_bytes
        assert compare_memory(cur, base) == []

    def test_schema1_zero_peak_baseline_skipped(self):
        base = _mem_report("old", {"x": 0})
        cur = _mem_report("new", {"x": 50 * self.MB})
        assert compare_memory(cur, base) == []

    def test_new_scenarios_skipped(self):
        base = _mem_report("old", {"x": 10 * self.MB})
        cur = _mem_report("new", {"x": 10 * self.MB, "brand-new": 90 * self.MB})
        assert compare_memory(cur, base) == []

    def test_improvements_never_flagged(self):
        base = _mem_report("old", {"x": 50 * self.MB})
        cur = _mem_report("new", {"x": 10 * self.MB})
        assert compare_memory(cur, base) == []

    def test_scale_mismatch_rejected(self):
        base = _mem_report("old", {"x": 10 * self.MB}, scale="default")
        cur = _mem_report("new", {"x": 10 * self.MB}, scale="smoke")
        with pytest.raises(ValueError):
            compare_memory(cur, base)

    def test_negative_gate_rejected(self):
        base = _mem_report("old", {"x": 10 * self.MB})
        cur = _mem_report("new", {"x": 10 * self.MB})
        with pytest.raises(ValueError):
            compare_memory(cur, base, max_regression=-0.1)
