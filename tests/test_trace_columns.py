"""Columns are a trace's only store: the artifact, IO, equality and audit
paths read them and never build a :class:`~repro.core.types.QuantumRecord`.

The ``no_records`` fixture makes ``TraceColumns.build_records`` raise, so
each test here fails if any step on its path falls back to record objects —
the cost that used to dominate ``repro giant`` end to end.
"""

from __future__ import annotations

import pytest

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.core.columnar import TraceColumns
from repro.core.types import JobTrace, QuantumRecord
from repro.engine.phased import PhasedJob
from repro.io.traces import load_traces, save_traces, trace_from_dict, trace_to_dict
from repro.report import write_csv
from repro.sim.jobs import JobSpec
from repro.sim.multi import MultiJobResult, simulate_job_set
from repro.verify.auditor import audit_multi_result
from repro.workloads.giant import artifact_rows, giant_scenario

#: The small giant shape: 4 groups of 8 jobs, 12 stable quanta.
GIANT = dict(groups=4, jobs_per_group=8, stable_quanta=12)


def _giant_csv(path, **mode) -> bytes:
    sc = giant_scenario(**GIANT)
    result = simulate_job_set(
        sc.specs,
        sc.build_allocator(),
        sc.processors,
        quantum_length=sc.quantum_length,
        **mode,
    )
    return write_csv(artifact_rows(result), path).read_bytes()


@pytest.mark.parametrize("shards", [None, 2])
def test_giant_artifact_builds_no_record(tmp_path, no_records, shards):
    got = _giant_csv(tmp_path / "giant.csv", shards=shards)
    oracle = _giant_csv(tmp_path / "serial.csv", batch="off", shards=None)
    assert got == oracle


def _deq_run(**mode) -> MultiJobResult:
    policy = AControl(0.2)
    specs = [
        JobSpec(job=PhasedJob([(1, 40), (w, 60), (1, 30)]), feedback=policy, job_id=j)
        for j, w in enumerate((3, 9, 5, 12))
    ]
    return simulate_job_set(
        specs, DynamicEquiPartitioning(), 16, quantum_length=20, **mode
    )


def test_save_load_eq_and_audit_build_no_record(tmp_path, no_records):
    result = _deq_run()
    path = save_traces(result.traces, tmp_path / "traces.json")
    serial = save_traces(_deq_run(batch="off").traces, tmp_path / "serial.json")
    assert path.read_bytes() == serial.read_bytes()

    loaded = load_traces(path)
    assert loaded == result.traces
    report = audit_multi_result(
        MultiJobResult(
            traces=loaded,
            processors=result.processors,
            quantum_length=result.quantum_length,
            quanta_elapsed=result.quanta_elapsed,
            released=dict(result.released),
        )
    )
    assert report.ok, report.summary()


def _two_quanta() -> JobTrace:
    trace = JobTrace(quantum_length=10)
    for q in (1, 2):
        trace.append(
            QuantumRecord(
                index=q,
                request=2.0,
                request_int=2,
                available=4,
                allotment=2,
                work=20,
                span=10.0,
                steps=10,
                quantum_length=10,
                start_step=10 * (q - 1),
            )
        )
    return trace


class TestLoadErrors:
    """Loading validates columns vectorized but raises exactly the error —
    and the row — that appending the records one by one would."""

    def test_record_invariant_names_the_row(self, no_records):
        data = trace_to_dict(_two_quanta())
        data["records"][1]["allotment"] = 5
        with pytest.raises(ValueError) as err:
            trace_from_dict(data)
        assert str(err.value) == (
            "invalid record at trace.records[1]: allotment exceeds availability"
        )

    def test_quantum_order_names_the_row(self, no_records):
        data = trace_to_dict(_two_quanta())
        data["records"][1]["index"] = 3
        with pytest.raises(ValueError) as err:
            trace_from_dict(data)
        assert str(err.value) == (
            "invalid record at trace.records[1]: "
            "quantum records must be appended in order"
        )

    def test_earlier_row_error_wins_over_later_field_error(self, no_records):
        data = trace_to_dict(_two_quanta())
        data["records"][0]["work"] = 999
        del data["records"][1]["span"]
        with pytest.raises(ValueError, match=r"records\[0\]: quantum work outside"):
            trace_from_dict(data)


def test_repr_reads_the_columns(no_records):
    """``repr`` names every column value and builds no record, so a trace
    whose rows are not valid records (quantum index 0 here) still prints."""
    row = (0, 1.0, 1, 1, 1, 1, 1.0, 1, 10, 0)
    text = repr(JobTrace(10, TraceColumns.from_rows([row]), job_id=3))
    assert text == (
        "JobTrace(quantum_length=10, columns=TraceColumns(index=[0], "
        "request=[1.0], request_int=[1], available=[1], allotment=[1], work=[1], "
        "span=[1.0], steps=[1], quantum_length=[10], start_step=[0]), "
        "release_time=0, job_id=3)"
    )
