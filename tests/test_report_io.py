"""Unit tests for reporting (ASCII charts, CSV export) and trace
serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.core.abg import AControl
from repro.engine.phased import PhasedJob
from repro.io.traces import (
    SCHEMA_VERSION,
    load_trace,
    load_traces,
    save_trace,
    save_traces,
    trace_from_dict,
    trace_to_dict,
)
from repro.report.ascii import line_chart, sparkline
from repro.report.export import rows_to_csv, write_csv
from repro.sim.single import simulate_job


@dataclass(frozen=True)
class Row:
    name: str
    value: float


@dataclass(frozen=True)
class Nested:
    label: str
    inner: Row
    tags: tuple[int, ...]
    extra: dict[str, list[Row]]


class TestSparkline:
    def test_length_preserved(self):
        assert len(sparkline([1, 5, 3, 8])) == 4

    def test_constant_series(self):
        assert sparkline([2, 2, 2]) == "▁▁▁"

    def test_extremes(self):
        s = sparkline([0, 10])
        assert s[0] == "▁" and s[1] == "█"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])


class TestLineChart:
    def test_contains_markers_and_legend(self):
        chart = line_chart(
            {"a": [(0, 0.0), (1, 1.0)], "b": [(0, 1.0), (1, 0.0)]},
            width=20,
            height=5,
            title="T",
            x_label="x",
            y_label="y",
        )
        assert "T" in chart
        assert "* a" in chart and "o b" in chart
        assert "*" in chart and "o" in chart

    def test_axis_labels(self):
        chart = line_chart({"s": [(2, 5.0), (10, 7.0)]}, width=30, height=4)
        assert "2" in chart and "10" in chart
        assert "5" in chart and "7" in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})

    def test_flat_series(self):
        chart = line_chart({"s": [(0, 3.0), (5, 3.0)]}, width=10, height=3)
        assert "3" in chart


class TestExport:
    def test_csv_of_dataclasses(self):
        text = rows_to_csv([Row("a", 1.5), Row("b", 2.0)])
        lines = text.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "a,1.5"

    def test_csv_of_dicts(self):
        text = rows_to_csv([{"x": 1}, {"x": 2}])
        assert text.strip().splitlines() == ["x", "1", "2"]

    def test_scalar_and_nested_rows_pinned(self):
        # Scalar rows are read field by field; a row with a nested field
        # goes through dataclasses.asdict, which renders the nested values
        # as dicts and tuples.
        scalar = [Row("a", 1.5), Row("b,c", -0.0)]
        assert rows_to_csv(scalar) == 'name,value\r\na,1.5\r\n"b,c",-0.0\r\n'
        nested = [Nested("n", Row("a", 1.5), (1, 2), {"k": [Row("b", 2.0)]})]
        assert rows_to_csv(nested) == (
            "label,inner,tags,extra\r\n"
            "n,\"{'name': 'a', 'value': 1.5}\",\"(1, 2)\","
            "\"{'k': [{'name': 'b', 'value': 2.0}]}\"\r\n"
        )

    def test_write_files(self, tmp_path):
        path = write_csv([Row("a", 1.0)], tmp_path / "r.csv")
        assert path.read_text().startswith("name,value")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv([])

    def test_bad_row_type(self):
        with pytest.raises(TypeError):
            rows_to_csv(["nope"])


def _sample_trace():
    job = PhasedJob([(1, 30), (5, 40), (1, 10)])
    return simulate_job(job, AControl(0.2), 16, quantum_length=25, job_id=9)


class TestTraceSerialization:
    def test_round_trip_dict(self):
        trace = _sample_trace()
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.job_id == trace.job_id
        assert restored.quantum_length == trace.quantum_length
        assert len(restored) == len(trace)
        for a, b in zip(restored, trace):
            assert a == b

    def test_round_trip_file(self, tmp_path):
        trace = _sample_trace()
        path = save_trace(trace, tmp_path / "trace.json")
        restored = load_trace(path)
        assert restored.total_work == trace.total_work
        assert restored.running_time == trace.running_time
        assert restored.measured_transition_factor() == pytest.approx(
            trace.measured_transition_factor()
        )

    def test_schema_checked(self):
        trace = _sample_trace()
        data = trace_to_dict(trace)
        data["schema"] = 999
        with pytest.raises(ValueError):
            trace_from_dict(data)

    def test_multi_trace_round_trip(self, tmp_path):
        traces = {1: _sample_trace(), 5: _sample_trace()}
        path = save_traces(traces, tmp_path / "set.json")
        restored = load_traces(path)
        assert set(restored) == {1, 5}
        assert restored[5].total_waste == traces[5].total_waste

    def test_multi_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 0, "traces": {}}))
        with pytest.raises(ValueError):
            load_traces(path)

    def test_schema_version_constant(self):
        assert trace_to_dict(_sample_trace())["schema"] == SCHEMA_VERSION


class TestCliIntegration:
    def test_fig5_csv_and_plot(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "fig5.csv"
        assert (
            main(
                [
                    "fig5",
                    "--factors",
                    "2:30:13",
                    "--jobs",
                    "2",
                    "--plot",
                    "--csv",
                    str(csv_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out
        assert csv_path.read_text().startswith("transition_factor,")

    def test_fig4_plot(self, capsys):
        from repro.cli import main

        assert main(["fig4", "--plot"]) == 0
        assert "d(q) per quantum" in capsys.readouterr().out

    def test_stealing_command(self, capsys):
        from repro.cli import main

        assert main(["stealing"]) == 0
        out = capsys.readouterr().out
        assert "A-Steal" in out and "ABP" in out
