"""Tests for the golden-trace regression harness (``repro.goldens``)."""

from __future__ import annotations

import json

import pytest

from repro.core.abg import AControl
from repro.core.agreedy import AGreedy
from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.allocators.machines import DisjointMachines
from repro.goldens import (
    ExplicitJob,
    ScenarioSpec,
    TraceDivergence,
    check_freshness,
    dag_scenario,
    machines_scenario,
    default_scenarios,
    first_divergence,
    fixture_paths,
    record_bundle,
    record_fixtures,
    scenario_from_fig6,
    verify_traces,
)
from repro.io import traces as traces_io
from repro.io.traces import (
    golden_bundle_payload,
    load_golden_bundle,
    load_traces,
    save_golden_bundle,
    trace_from_dict,
    trace_to_dict,
)
from repro.core.types import JobTrace, QuantumRecord


def tiny_spec(scenario_id: str = "tiny", **overrides) -> ScenarioSpec:
    fields = dict(
        scenario_id=scenario_id,
        policy="abg",
        policy_params=(("convergence_rate", 0.2),),
        allocator="deq",
        processors=4,
        quantum_length=50,
        max_quanta=10_000,
        jobs=(
            # long enough to span several quanta so the feedback policy's
            # next_request actually shapes the trace
            ExplicitJob(job_id=0, release_time=0, phases=((1, 120), (4, 260))),
            ExplicitJob(job_id=1, release_time=0, phases=((2, 180),)),
        ),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def make_trace(values, *, quantum_length=100, release_time=0, job_id=None):
    trace = JobTrace(
        quantum_length=quantum_length, release_time=release_time, job_id=job_id
    )
    start = release_time
    for i, (request, allotment) in enumerate(values, start=1):
        trace.append(
            QuantumRecord(
                index=i,
                request=float(request),
                request_int=int(round(request)),
                available=allotment,
                allotment=allotment,
                work=allotment * quantum_length,
                span=float(quantum_length),
                steps=quantum_length,
                quantum_length=quantum_length,
                start_step=start,
            )
        )
        start += quantum_length
    return trace


class TestTraceHardening:
    def test_missing_record_field_names_path(self):
        data = trace_to_dict(make_trace([(2, 2)]))
        del data["records"][0]["span"]
        with pytest.raises(ValueError, match=r"trace\.records\[0\]\.span"):
            trace_from_dict(data)

    def test_mistyped_record_field_names_path(self):
        data = trace_to_dict(make_trace([(2, 2)]))
        data["records"][0]["allotment"] = "three"
        with pytest.raises(ValueError, match=r"records\[0\]\.allotment"):
            trace_from_dict(data)

    def test_bool_rejected_in_count_field(self):
        data = trace_to_dict(make_trace([(2, 2)]))
        data["records"][0]["steps"] = True
        with pytest.raises(ValueError, match=r"records\[0\]\.steps"):
            trace_from_dict(data)

    def test_nonfinite_float_names_path(self):
        data = trace_to_dict(make_trace([(2, 2)]))
        data["records"][0]["request"] = float("inf")
        with pytest.raises(ValueError, match=r"records\[0\]\.request"):
            trace_from_dict(data)

    def test_where_prefix_propagates(self):
        data = trace_to_dict(make_trace([(2, 2)]))
        del data["records"][0]["work"]
        with pytest.raises(ValueError, match=r"traces\['3'\]\.records\[0\]\.work"):
            trace_from_dict(data, where="traces['3']")

    def test_duplicate_json_keys_rejected(self, tmp_path):
        inner = json.dumps(trace_to_dict(make_trace([(1, 1)])))
        path = tmp_path / "dup.json"
        path.write_text(
            '{"schema": 1, "traces": {"1": %s, "1": %s}}' % (inner, inner)
        )
        with pytest.raises(ValueError, match="duplicate key"):
            load_traces(path)

    def test_normalization_collision_rejected(self, tmp_path):
        inner = json.dumps(trace_to_dict(make_trace([(1, 1)])))
        path = tmp_path / "dup.json"
        path.write_text(
            '{"schema": 1, "traces": {"1": %s, "01": %s}}' % (inner, inner)
        )
        with pytest.raises(ValueError, match="duplicate job id 1"):
            load_traces(path)

    def test_bad_job_id_key_rejected(self, tmp_path):
        inner = json.dumps(trace_to_dict(make_trace([(1, 1)])))
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "traces": {"seven": %s}}' % inner)
        with pytest.raises(ValueError, match="bad job id 'seven'"):
            load_traces(path)


class TestScenarioSpec:
    def test_round_trip(self):
        spec = tiny_spec(horizon=7)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            tiny_spec(policy="fifo", policy_params=())

    def test_wrong_policy_param_rejected(self):
        with pytest.raises(ValueError, match="does not accept parameter"):
            tiny_spec(policy_params=(("responsiveness", 2.0),))

    def test_unsorted_params_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            tiny_spec(
                policy="agreedy",
                policy_params=(
                    ("utilization_threshold", 0.8),
                    ("responsiveness", 2.0),
                ),
            )

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate job id"):
            tiny_spec(
                jobs=(
                    ExplicitJob(job_id=0, release_time=0, phases=((1, 1),)),
                    ExplicitJob(job_id=0, release_time=0, phases=((1, 1),)),
                )
            )

    def test_from_dict_names_bad_phase_path(self):
        data = tiny_spec().to_dict()
        data["jobs"][1]["phases"][0] = [0, 3]
        with pytest.raises(ValueError, match=r"jobs\[1\]\.phases\[0\]\[0\]"):
            ScenarioSpec.from_dict(data)

    def test_from_dict_missing_field(self):
        data = tiny_spec().to_dict()
        del data["processors"]
        with pytest.raises(ValueError, match=r"missing field scenario\.processors"):
            ScenarioSpec.from_dict(data)

    def test_build_is_executable_and_fresh(self):
        spec = tiny_spec()
        specs_a, alloc_a = spec.build()
        specs_b, alloc_b = spec.build()
        assert alloc_a is not alloc_b
        assert specs_a[0].job is not specs_b[0].job
        assert [s.job_id for s in specs_a] == [0, 1]
        # one shared policy instance across jobs (the experiment idiom)
        assert specs_a[0].feedback is specs_a[1].feedback

    def test_per_job_policy_round_trips_as_schema_2(self):
        spec = tiny_spec(
            jobs=(
                ExplicitJob(job_id=0, release_time=0, phases=((1, 1),)),
                ExplicitJob(
                    job_id=1, release_time=0, phases=((2, 2),), policy="agreedy"
                ),
            )
        )
        data = spec.to_dict()
        assert data["schema"] == 2 and data["jobs"][1]["policy"] == "agreedy"
        assert ScenarioSpec.from_dict(data) == spec
        specs, _ = spec.build()
        assert isinstance(specs[0].feedback, AControl)
        assert isinstance(specs[1].feedback, AGreedy)
        data["schema"] = 1
        with pytest.raises(ValueError, match="per-job policies"):
            ScenarioSpec.from_dict(data)
        with pytest.raises(ValueError, match="unknown policy 'fifo'"):
            ExplicitJob(job_id=2, release_time=0, phases=((1, 1),), policy="fifo")

    def test_machines_allocator_splits_processors_unequally(self):
        spec = machines_scenario("m", seed=1, processors=12)
        _, allocator = spec.build()
        assert isinstance(allocator, DisjointMachines)
        assert allocator.budgets == (2, 4, 6)
        with pytest.raises(ValueError, match="at least 6 processors"):
            tiny_spec(allocator="machines", processors=5)

    def test_scenario_from_fig6_is_deterministic(self):
        a = scenario_from_fig6("x", seed=5, index=3)
        b = scenario_from_fig6("x", seed=5, index=3)
        assert a == b
        assert a != scenario_from_fig6("x", seed=5, index=4)


class TestGoldenBundles:
    def test_record_round_trip(self, tmp_path):
        bundle = record_bundle(tiny_spec())
        path = save_golden_bundle(tmp_path / "tiny.json", bundle)
        loaded = load_golden_bundle(path)
        assert loaded.scenario == bundle.scenario
        assert loaded.digest == bundle.digest
        assert set(loaded.traces) == set(bundle.traces)
        assert loaded.provenance["reference_path"] == "serial"

    def test_recording_twice_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        a = save_golden_bundle(tmp_path / "a.json", record_bundle(spec))
        b = save_golden_bundle(tmp_path / "b.json", record_bundle(spec))
        assert a.read_bytes() == b.read_bytes()

    def test_digest_ignores_provenance(self):
        spec = tiny_spec()
        a = record_bundle(spec)
        b = record_bundle(spec, extra_provenance={"note": "different"})
        assert a.provenance != b.provenance
        assert a.digest == b.digest

    def test_hand_edit_fails_digest_check(self, tmp_path):
        path = save_golden_bundle(tmp_path / "t.json", record_bundle(tiny_spec()))
        data = json.loads(path.read_text())
        first_jid = sorted(data["traces"])[0]
        # a still-valid record (allotment <= available still holds) so the
        # tamper is caught by the digest, not by field validation
        data["traces"][first_jid]["records"][0]["available"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="digest mismatch"):
            load_golden_bundle(path)

    def test_digest_mismatch_hashes_the_contents_once(self, tmp_path, monkeypatch):
        path = save_golden_bundle(tmp_path / "t.json", record_bundle(tiny_spec()))
        data = json.loads(path.read_text())
        data["traces"][sorted(data["traces"])[0]]["records"][0]["available"] += 1
        path.write_text(json.dumps(data))
        digests = []
        real = traces_io.golden_digest

        def counted(scenario, traces):
            digests.append(real(scenario, traces))
            return digests[-1]

        monkeypatch.setattr(traces_io, "golden_digest", counted)
        with pytest.raises(ValueError) as raised:
            load_golden_bundle(path)
        assert len(digests) == 1
        assert str(raised.value) == (
            f"golden bundle {path} digest mismatch: file declares {data['digest']!r} "
            f"but contents hash to {digests[0]!r} (edited without re-recording?)"
        )

    def test_unknown_schema_rejected(self, tmp_path):
        payload = golden_bundle_payload(record_bundle(tiny_spec()))
        payload["schema"] = 99
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported golden-bundle schema"):
            load_golden_bundle(path)


class TestVerifyTraces:
    def test_all_paths_pass_on_unmutated_tree(self, tmp_path):
        record_fixtures(tmp_path, [tiny_spec()])
        report = verify_traces(fixture_paths(tmp_path))
        assert report.passed
        assert [o["status"] for o in report.outcomes] == ["pass"] * 2
        assert [o["path"] for o in report.outcomes] == ["serial", "superstep"]

    def test_default_registry_passes_all_paths(self, tmp_path):
        record_fixtures(tmp_path, default_scenarios())
        report = verify_traces(fixture_paths(tmp_path))
        assert report.passed
        # 9 scenarios x 2 paths
        assert len(report.outcomes) == 18
        assert report.render().endswith("18 pass, 0 fail, 0 error")

    def test_report_is_deterministic(self, tmp_path):
        record_fixtures(tmp_path, [tiny_spec()])
        a = verify_traces(fixture_paths(tmp_path))
        b = verify_traces(fixture_paths(tmp_path))
        assert a.render() == b.render()
        assert a.payload() == b.payload()

    def test_unreadable_fixture_is_abg403(self, tmp_path):
        (tmp_path / "junk.json").write_text('{"schema": 99}')
        report = verify_traces(fixture_paths(tmp_path))
        assert not report.passed
        assert {f.code for f in report.findings} == {"ABG403"}

    def test_policy_drift_fails_with_field_diff(self, tmp_path, monkeypatch):
        heavy = [s for s in default_scenarios() if s.scenario_id == "fig6-heavy-abg"]
        record_fixtures(tmp_path, heavy)

        orig = AControl.next_request_batch

        def drifted(self, **kwargs):
            out = orig(self, **kwargs)
            return None if out is None else out + 0.5

        monkeypatch.setattr(AControl, "next_request_batch", drifted)
        report = verify_traces(fixture_paths(tmp_path))
        assert not report.passed
        by_path = {o["path"]: o for o in report.outcomes}
        # serial uses the scalar policy and still matches the golden: the
        # drift is isolated to the batched kernel's superstep path
        assert by_path["serial"]["status"] == "pass"
        assert by_path["superstep"]["status"] == "fail"
        div = by_path["superstep"]["divergence"]
        assert div["kind"] == "field"
        assert div["quantum"] >= 2  # the first quantum's request is initial
        assert "request" in {f["field"] for f in div["fields"]}
        for diff in div["fields"]:
            assert diff["expected"] != diff["got"]
        assert {f.code for f in report.findings} == {"ABG401"}

    def test_deq_waterfall_perturbation_fails_exactly(self, tmp_path, monkeypatch):
        heavy = [s for s in default_scenarios() if s.scenario_id == "fig6-heavy-abg"]
        record_fixtures(tmp_path, heavy)
        _perturb_deq(monkeypatch)
        report = verify_traces(fixture_paths(tmp_path))
        assert not report.passed
        by_path = {o["path"]: o for o in report.outcomes}
        assert by_path["serial"]["status"] == "pass"
        div = by_path["superstep"]["divergence"]
        assert div["kind"] == "field"
        assert div["job_id"] is not None and div["quantum"] is not None
        assert div["start_step"] is not None
        assert "allotment" in {f["field"] for f in div["fields"]}
        assert "first divergence at quantum" in div["summary"]


def _perturb_deq(monkeypatch):
    """Transfer one processor from a rich job to a deprived one — a valid
    allocation (coverage/bounds invariants hold) that perturbs the DEQ
    waterfall on the superstep path only."""
    import numpy as np

    orig = DynamicEquiPartitioning.allocate_batch

    def perturbed(self, ids, requests, total):
        grants = orig(self, ids, requests, total)
        deprived = np.flatnonzero(grants < requests)
        rich = np.flatnonzero(grants >= 2)
        if deprived.size and rich.size and rich[-1] != deprived[0]:
            grants = grants.copy()
            grants[rich[-1]] -= 1
            grants[deprived[0]] += 1
        return grants

    monkeypatch.setattr(DynamicEquiPartitioning, "allocate_batch", perturbed)


class TestFirstDivergence:
    def test_identical_traces_no_divergence(self):
        a = {1: make_trace([(2, 2), (3, 3)])}
        assert first_divergence(a, a) is None

    def test_field_divergence_reports_all_fields(self):
        expected = {1: make_trace([(2, 2), (3, 3)])}
        got = {1: make_trace([(2, 2), (4, 4)])}
        div = first_divergence(expected, got)
        assert div is not None and div.kind == "field"
        assert div.quantum == 2 and div.position == 1
        names = {f.field for f in div.fields}
        assert {"request", "request_int", "available", "allotment", "work"} <= names

    def test_earliest_start_step_wins_across_jobs(self):
        expected = {
            1: make_trace([(2, 2), (3, 3), (3, 3)]),
            2: make_trace([(1, 1), (1, 1), (1, 1)]),
        }
        got = {
            1: make_trace([(2, 2), (3, 3), (4, 4)]),  # diverges at start 200
            2: make_trace([(1, 1), (2, 2), (1, 1)]),  # diverges at start 100
        }
        div = first_divergence(expected, got)
        assert div is not None
        assert div.job_id == 2 and div.start_step == 100

    def test_quantum_count_mismatch(self):
        expected = {1: make_trace([(2, 2), (3, 3)])}
        got = {1: make_trace([(2, 2)])}
        div = first_divergence(expected, got)
        assert div is not None and div.kind == "quantum-count"
        assert div.quantum == 2 and "expected 2 quanta, got 1" in div.detail

    def test_job_set_mismatch(self):
        expected = {1: make_trace([(1, 1)]), 2: make_trace([(1, 1)])}
        got = {1: make_trace([(1, 1)]), 3: make_trace([(1, 1)])}
        div = first_divergence(expected, got)
        assert div is not None and div.kind == "job-set"
        assert "missing jobs [2]" in div.detail
        assert "unexpected jobs [3]" in div.detail

    def test_float_comparison_is_bitwise(self):
        a = make_trace([(2, 2)])
        b = make_trace([(2, 2)])
        b.columns.span[0] = -0.0  # valid, and == 0.0, but not the same bits
        div = first_divergence({1: a}, {1: b})
        assert div is not None
        assert {f.field for f in div.fields} == {"span"}

    def test_horizon_bounds_comparison(self):
        expected = {1: make_trace([(2, 2), (3, 3), (3, 3)])}
        got = {1: make_trace([(2, 2), (3, 3), (4, 4)])}
        assert first_divergence(expected, got, horizon=2) is None
        assert first_divergence(expected, got, horizon=3) is not None

    def test_metadata_mismatch(self):
        expected = {1: make_trace([(1, 1)], quantum_length=100)}
        got = {1: make_trace([(1, 1)], quantum_length=200)}
        div = first_divergence(expected, got)
        assert div is not None and div.kind == "metadata"
        assert "quantum_length" in div.detail

    def test_payload_round_trips_to_json(self):
        div = TraceDivergence(kind="job-set", detail="missing jobs [1]")
        assert json.loads(json.dumps(div.to_payload()))["kind"] == "job-set"


class TestFreshness:
    def test_fresh_fixtures_are_clean(self, tmp_path):
        scenarios = [tiny_spec()]
        record_fixtures(tmp_path, scenarios)
        assert check_freshness(tmp_path, scenarios) == []

    def test_missing_fixture_is_abg404(self, tmp_path):
        scenarios = [tiny_spec()]
        findings = check_freshness(tmp_path, scenarios)
        assert [f.code for f in findings] == ["ABG404"]
        assert "no recorded fixture" in findings[0].message

    def test_registry_change_is_abg404(self, tmp_path):
        record_fixtures(tmp_path, [tiny_spec()])
        changed = [tiny_spec(quantum_length=60)]
        findings = check_freshness(tmp_path, changed)
        assert [f.code for f in findings] == ["ABG404"]
        assert "no longer matches" in findings[0].message

    def test_behaviour_drift_is_abg404(self, tmp_path, monkeypatch):
        scenarios = [tiny_spec()]
        record_fixtures(tmp_path, scenarios)

        orig = AControl.next_request

        def drifted(self, record):
            return orig(self, record) + 1.0

        monkeypatch.setattr(AControl, "next_request", drifted)
        findings = check_freshness(tmp_path, scenarios)
        assert [f.code for f in findings] == ["ABG404"]
        assert "changes its digest" in findings[0].message

    def test_corrupt_fixture_is_abg403(self, tmp_path):
        record_fixtures(tmp_path, [tiny_spec()])
        path = fixture_paths(tmp_path)[0]
        data = json.loads(path.read_text())
        data["digest"] = "0" * 64
        path.write_text(json.dumps(data))
        findings = check_freshness(tmp_path, [tiny_spec()])
        assert [f.code for f in findings] == ["ABG403"]
        # the writer replaces it from the registry
        written, _fresh = record_fixtures(tmp_path, [tiny_spec()])
        assert written == [path]
        assert check_freshness(tmp_path, [tiny_spec()]) == []

    def test_extra_regression_fixture_is_allowed(self, tmp_path):
        scenarios = [tiny_spec()]
        record_fixtures(tmp_path, scenarios)
        extra = tiny_spec(scenario_id="tiny-min")
        save_golden_bundle(tmp_path / "tiny-min.json", record_bundle(extra))
        assert check_freshness(tmp_path, scenarios) == []


class TestCommittedFixtures:
    """The repo's own fixtures/goldens must replay clean and fresh."""

    def test_committed_fixtures_pass(self):
        paths = fixture_paths("fixtures/goldens")
        assert len(paths) >= 5
        report = verify_traces(paths)
        assert report.passed, report.render()

    def test_committed_fixtures_fresh(self):
        assert check_freshness("fixtures/goldens") == []


class TestCli:
    def test_record_verify_check_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "goldens")
        assert main(["record-traces", "--out", out]) == 0
        assert main(["verify-traces", "--fixtures", out]) == 0
        assert main(["record-traces", "--out", out, "--check"]) == 0
        text = capsys.readouterr().out
        assert "18 pass, 0 fail, 0 error" in text
        assert "clean: no findings" in text

    def test_verify_exit_code_and_diff_on_mutation(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        out = str(tmp_path / "goldens")
        record_fixtures(
            out, [s for s in default_scenarios() if "heavy" in s.scenario_id]
        )
        _perturb_deq(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["verify-traces", "--fixtures", out])
        assert exc.value.code == 1
        text = capsys.readouterr().out
        assert "first divergence at quantum" in text
        assert "allotment: expected" in text

    def test_verify_json_format(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "goldens")
        record_fixtures(out, [tiny_spec()])
        assert main(["verify-traces", "--fixtures", out, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"total": 0}
        assert len(payload["outcomes"]) == 2

    def test_verify_empty_dir_is_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["verify-traces", "--fixtures", str(tmp_path)])

    def test_record_from_experiments(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "goldens")
        argv = ["record-traces", "--out", out, "--from-experiments", "smoke", "--sets", "1"]
        assert main(argv) == 0
        paths = fixture_paths(out)
        assert [p.stem for p in paths] == ["fig6-smoke-set0"]
        report = verify_traces(paths)
        assert report.passed
        # --check scans against the same experiment scenarios, not the
        # default registry
        capsys.readouterr()
        assert main([*argv, "--check"]) == 0
        assert capsys.readouterr().out.strip() == "clean: no findings"


def dag_spec(scenario_id: str = "dag-tiny", **overrides) -> ScenarioSpec:
    """A mixed schema-2 scenario: one explicit dag job, one phased job."""
    fields = dict(
        scenario_id=scenario_id,
        policy="abg",
        policy_params=(("convergence_rate", 0.2),),
        allocator="deq",
        processors=4,
        quantum_length=10,
        max_quanta=10_000,
        jobs=(
            ExplicitJob(
                job_id=0,
                release_time=0,
                dag=(5, ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))),
            ),
            ExplicitJob(job_id=1, release_time=0, phases=((2, 40),)),
        ),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestDagScenarios:
    """Schema-2 fixtures: dag-structured jobs with pinned engines."""

    def test_round_trip_emits_schema_2(self):
        spec = dag_spec()
        data = spec.to_dict()
        assert data["schema"] == 2
        assert ScenarioSpec.from_dict(data) == spec

    def test_phased_only_scenario_still_emits_schema_1(self):
        # Committed pre-dag fixtures must stay byte-identical.
        assert tiny_spec().to_dict()["schema"] == 1

    def test_job_needs_exactly_one_structure(self):
        with pytest.raises(ValueError, match="exactly one of phases or dag"):
            ExplicitJob(job_id=0, release_time=0)
        with pytest.raises(ValueError, match="exactly one of phases or dag"):
            ExplicitJob(
                job_id=0, release_time=0, phases=((1, 5),), dag=(2, ((0, 1),))
            )

    def test_engine_requires_dag(self):
        with pytest.raises(ValueError, match="without a dag"):
            ExplicitJob(
                job_id=0, release_time=0, phases=((1, 5),), engine="reference"
            )
        with pytest.raises(ValueError, match="unknown engine"):
            ExplicitJob(
                job_id=0, release_time=0, dag=(2, ((0, 1),)), engine="heap"
            )

    def test_cyclic_dag_rejected(self):
        with pytest.raises(ValueError, match="invalid dag"):
            ExplicitJob(job_id=0, release_time=0, dag=(2, ((0, 1), (1, 0))))

    def test_schema_1_payload_with_dag_rejected(self):
        data = dag_spec().to_dict()
        data["schema"] = 1
        with pytest.raises(ValueError, match="require schema 2"):
            ScenarioSpec.from_dict(data)

    def test_batchable_dag_fixture_passes_both_paths(self, tmp_path):
        spec = dag_scenario(
            "dag-mini", seed=7, num_jobs=3, num_levels=(8, 12), structure="barrier"
        )
        record_fixtures(tmp_path, [spec])
        report = verify_traces(fixture_paths(tmp_path))
        assert report.passed
        assert [o["status"] for o in report.outcomes] == ["pass"] * 2

    def test_reference_engine_fixture_passes_both_paths(self, tmp_path):
        """A non-batchable job sends the set to the serial loop on the
        superstep path too; both replays still match the golden."""
        spec = dag_scenario(
            "dag-ref-mini",
            seed=7,
            num_jobs=3,
            num_levels=(8, 12),
            structure="irregular",
            engine="reference",
        )
        record_fixtures(tmp_path, [spec])
        report = verify_traces(fixture_paths(tmp_path))
        assert report.passed
        by_path = {o["path"]: o["status"] for o in report.outcomes}
        assert by_path == {"serial": "pass", "superstep": "pass"}
        assert report.findings == ()
        assert report.render().endswith("2 pass, 0 fail, 0 error")


class TestRecordOnGreen:
    """``record_fixtures`` (``record-traces``) rewrites exactly the stale
    fixtures and leaves green ones byte-untouched."""

    def test_initial_record_writes_everything(self, tmp_path):
        written, skipped = record_fixtures(tmp_path, [tiny_spec()])
        assert [p.stem for p in written] == ["tiny"]
        assert skipped == []

    def test_green_fixtures_stay_byte_identical(self, tmp_path):
        record_fixtures(tmp_path, [tiny_spec()])
        before = (tmp_path / "tiny.json").read_bytes()
        written, skipped = record_fixtures(tmp_path, [tiny_spec()])
        assert written == []
        assert [p.stem for p in skipped] == ["tiny"]
        assert (tmp_path / "tiny.json").read_bytes() == before

    def test_only_the_diverged_fixture_is_rewritten(self, tmp_path):
        scenarios = [tiny_spec(), tiny_spec(scenario_id="tiny2", quantum_length=60)]
        record_fixtures(tmp_path, scenarios)
        fresh_bytes = (tmp_path / "tiny.json").read_bytes()
        # Simulate behaviour drift on one fixture: tamper with its traces.
        path = tmp_path / "tiny2.json"
        data = json.loads(path.read_text())
        key = next(iter(data["traces"]))
        data["traces"][key]["records"][0]["allotment"] += 1
        path.write_text(json.dumps(data))
        written, skipped = record_fixtures(tmp_path, scenarios)
        assert [p.stem for p in written] == ["tiny2"]
        assert [p.stem for p in skipped] == ["tiny"]
        assert (tmp_path / "tiny.json").read_bytes() == fresh_bytes
        assert check_freshness(tmp_path, scenarios) == []

    def test_registry_change_re_records_that_fixture(self, tmp_path):
        record_fixtures(tmp_path, [tiny_spec()])
        changed = [tiny_spec(quantum_length=60)]
        written, skipped = record_fixtures(tmp_path, changed)
        assert [p.stem for p in written] == ["tiny"]
        assert skipped == []
        assert check_freshness(tmp_path, changed) == []

    def test_extra_regression_fixture_checked_not_clobbered(self, tmp_path):
        record_fixtures(tmp_path, [tiny_spec()])
        extra = tiny_spec(scenario_id="tiny-min")
        save_golden_bundle(tmp_path / "tiny-min.json", record_bundle(extra))
        before = (tmp_path / "tiny-min.json").read_bytes()
        written, skipped = record_fixtures(tmp_path, [tiny_spec()])
        assert written == []
        assert {p.stem for p in skipped} == {"tiny", "tiny-min"}
        assert (tmp_path / "tiny-min.json").read_bytes() == before

    def test_cli_record_on_green(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "goldens")
        assert main(["record-traces", "--out", out]) == 0
        assert "re-recorded 9 stale fixture(s)" in capsys.readouterr().out
        before = {p.name: p.read_bytes() for p in fixture_paths(out)}
        assert main(["record-traces", "--out", out]) == 0
        assert {p.name: p.read_bytes() for p in fixture_paths(out)} == before
        text = capsys.readouterr().out
        assert "re-recorded 0 stale fixture(s)" in text
        assert "left 9 green fixture(s) untouched" in text
