"""Trace JSON is written and read by column.

The writer must emit exactly the bytes ``json.dumps(..., indent=...)`` writes
for the record-dict payload, and the loader must accept exactly what the
row-by-row loader accepts and raise exactly the error it raises.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocators.equipartition import DynamicEquiPartitioning
from repro.core.abg import AControl
from repro.core.columnar import RECORD_FIELDS, TraceColumns
from repro.core.types import JobTrace
from repro.engine.phased import PhasedJob
from repro.io import traces as traces_io
from repro.io.traces import (
    GoldenBundle,
    golden_bundle_payload,
    load_golden_bundle,
    load_trace,
    load_traces,
    save_golden_bundle,
    save_trace,
    save_traces,
    trace_from_dict,
    trace_to_dict,
    traces_payload,
)
from repro.sim.jobs import JobSpec
from repro.sim.multi import simulate_job_set

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
SPECIAL_FLOATS = (-0.0, 5e-324, 1e16, 0.1 + 0.2, math.inf, -math.inf, math.nan)

# ---------------------------------------------------------------------------
# Writer: byte identity with json.dumps
# ---------------------------------------------------------------------------

int64s = st.integers(INT64_MIN, INT64_MAX)
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)


@st.composite
def traces(draw: st.DrawFn) -> JobTrace:
    """A trace of arbitrary column values: the writer formats whatever the
    columns hold, valid records or not."""
    n = draw(st.integers(0, 5))
    columns = {}
    for name in RECORD_FIELDS:
        is_float = name in ("request", "span")
        values = draw(st.lists(floats if is_float else int64s, min_size=n, max_size=n))
        columns[name] = np.array(values, dtype=np.float64 if is_float else np.int64)
    return JobTrace(
        draw(int64s),
        TraceColumns(**columns),
        release_time=draw(st.integers(0, INT64_MAX)),
        job_id=draw(st.none() | int64s),
    )


trace_sets = st.dictionaries(st.integers(0, 10**6), traces(), max_size=4)


def _edge_trace() -> JobTrace:
    """One trace with every edge-case spelling: -0.0, subnormal, 1e16, 0.1+0.2,
    int64 extremes and non-finite requests."""
    rows = [
        (1, -0.0, 0, 0, 0, 0, 5e-324, 0, 1, INT64_MIN),
        (2, 1e16, INT64_MAX, INT64_MAX, 3, 3, 0.1 + 0.2, 1, INT64_MAX, 0),
        (3, math.inf, 1, 1, 1, 1, 1.0, 1, 1, 1),
        (4, -math.inf, 1, 1, 1, 1, 1.0, 1, 1, 2),
        (5, math.nan, 1, 1, 1, 1, 1.0, 1, 1, 3),
    ]
    return JobTrace(7, TraceColumns.from_rows(rows), release_time=40, job_id=None)


EDGE_SETS = [
    {},
    {0: JobTrace(5)},
    {3: _edge_trace(), 1: JobTrace(5, release_time=9)},
]


@settings(max_examples=150, deadline=None)
@given(trace=traces())
@example(trace=JobTrace(5))
@example(trace=_edge_trace())
def test_save_trace_bytes_are_json_dumps(tmp_path_factory, trace):
    path = save_trace(trace, tmp_path_factory.mktemp("t") / "trace.json")
    assert path.read_text() == json.dumps(trace_to_dict(trace), indent=2)


@settings(max_examples=100, deadline=None)
@given(traces=trace_sets)
@example(traces=EDGE_SETS[0])
@example(traces=EDGE_SETS[1])
@example(traces=EDGE_SETS[2])
def test_save_traces_bytes_are_json_dumps(tmp_path_factory, traces):
    path = save_traces(traces, tmp_path_factory.mktemp("t") / "traces.json")
    reference = {"schema": 1, "traces": traces_payload(traces)}
    assert path.read_text() == json.dumps(reference, indent=2)


@settings(max_examples=60, deadline=None)
@given(
    traces=trace_sets,
    note=st.text(max_size=8) | st.just(traces_io._PLACEHOLDER),
)
@example(traces=EDGE_SETS[2], note="")
@example(traces=EDGE_SETS[2], note=traces_io._PLACEHOLDER)
def test_save_golden_bundle_bytes_are_json_dumps(tmp_path_factory, traces, note):
    # A scenario string that spells the records placeholder takes the plain
    # json.dumps path; the bytes are the same either way.
    bundle = GoldenBundle(
        scenario={"scenario_id": "s", "note": note, "nested": {"a": [1, 2.5]}},
        traces=traces,
        provenance={"rev": "abc"},
    )
    path = save_golden_bundle(tmp_path_factory.mktemp("g") / "g.json", bundle)
    assert path.read_text() == json.dumps(golden_bundle_payload(bundle), indent=1)


def test_non_trace_object_still_fails_like_json():
    with pytest.raises(TypeError, match="not JSON serializable"):
        traces_io._dumps({"x": object()}, indent=2, depth=1)


# ---------------------------------------------------------------------------
# Loader: the C-decoder path and the hooked row-by-row path agree
# ---------------------------------------------------------------------------


@functools.cache
def _deq_traces() -> dict[int, JobTrace]:
    policy = AControl(0.2)
    specs = [
        JobSpec(job=PhasedJob([(1, 40), (w, 60), (1, 30)]), feedback=policy, job_id=j)
        for j, w in zip((12, 3, 40, 7), (3, 9, 5, 12))
    ]
    return simulate_job_set(specs, DynamicEquiPartitioning(), 16, quantum_length=20).traces


def test_fast_and_fallback_loads_agree(tmp_path, monkeypatch):
    simulated = _deq_traces()
    path = save_traces(simulated, tmp_path / "traces.json")
    fast = load_traces(path)
    monkeypatch.setattr(traces_io, "_count_keys", lambda value: -1)
    monkeypatch.setattr(traces_io, "_checked_columns", lambda records: None)
    hooked = load_traces(path)
    assert fast == hooked == simulated
    assert list(fast) == list(hooked) == sorted(simulated)


def test_golden_bundle_and_single_trace_round_trip(tmp_path):
    simulated = _deq_traces()
    bundle = GoldenBundle(scenario={"scenario_id": "a:b"}, traces=simulated)
    loaded = load_golden_bundle(save_golden_bundle(tmp_path / "g.json", bundle))
    assert loaded.traces == simulated
    assert loaded.scenario == {"scenario_id": "a:b"}
    trace = simulated[3]
    assert load_trace(save_trace(trace, tmp_path / "t.json")) == trace


def _write(tmp_path, payload_text: str):
    path = tmp_path / "traces.json"
    path.write_text(payload_text)
    return path


def _saved_text(tmp_path) -> str:
    traces = {1: _deq_traces()[12], 2: _deq_traces()[3]}
    return save_traces(traces, tmp_path / "src.json").read_text()


@pytest.mark.parametrize(
    "old, new",
    [
        # inside a record
        ('"span": ', '"span": 1.0,\n          "span": '),
        # inside a trace object
        ('"release_time": ', '"release_time": 0,\n      "release_time": '),
        # at top level
        ('"schema": 1,\n  "traces"', '"schema": 1,\n  "schema": 1,\n  "traces"'),
    ],
    ids=["record", "trace", "top-level"],
)
def test_duplicate_key_rejected_everywhere(tmp_path, old, new):
    text = _saved_text(tmp_path)
    assert old in text
    path = _write(tmp_path, text.replace(old, new, 1))
    with pytest.raises(ValueError, match="duplicate key"):
        load_traces(path)


def test_duplicate_key_wins_over_earlier_type_error(tmp_path):
    data = json.loads(_saved_text(tmp_path))
    records = data["traces"]["1"]["records"]
    records[2]["work"] = "many"
    text = json.dumps(data, indent=2)
    # Duplicate a key of record 5 (the sixth object in the list).
    marker = '"index": 6,'
    assert text.count(marker) >= 1
    text = text.replace(marker, marker + ' "index": 6,', 1)
    with pytest.raises(ValueError, match="duplicate key 'index'"):
        load_traces(_write(tmp_path, text))
    # Without the duplicate, the type error is what is reported.
    with pytest.raises(ValueError, match=r"traces\['1'\]\.records\[2\]\.work"):
        load_traces(_write(tmp_path, json.dumps(data, indent=2)))


def test_colon_in_job_id_key_is_a_bad_job_id(tmp_path):
    inner = json.dumps(trace_to_dict(_deq_traces()[3]))
    path = _write(tmp_path, '{"schema": 1, "traces": {"1:2": %s}}' % inner)
    with pytest.raises(ValueError, match="bad job id '1:2'"):
        load_traces(path)


def test_extra_record_keys_accepted(tmp_path):
    data = json.loads(_saved_text(tmp_path))
    records = data["traces"]["2"]["records"]
    records[0]["note"] = "kept: ignored"
    records[1]["nested"] = {"a": [1, {"b": 2}]}
    loaded = load_traces(_write(tmp_path, json.dumps(data, indent=2)))
    assert loaded[2] == _deq_traces()[3]


@pytest.mark.parametrize("field", ["steps", "start_step"])
def test_true_in_count_field_rejected_with_path(tmp_path, field):
    # start_step takes part in no record invariant: only the type check
    # can reject it.
    data = json.loads(_saved_text(tmp_path))
    data["traces"]["2"]["records"][1][field] = True
    with pytest.raises(ValueError, match=rf"traces\['2'\]\.records\[1\]\.{field}"):
        load_traces(_write(tmp_path, json.dumps(data, indent=2)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_request_rejected_with_path(tmp_path, value):
    # request takes part in no record invariant: only the finiteness check
    # can reject it.
    data = json.loads(_saved_text(tmp_path))
    data["traces"]["1"]["records"][3]["request"] = value
    with pytest.raises(ValueError, match=r"traces\['1'\]\.records\[3\]\.request must be finite"):
        load_traces(_write(tmp_path, json.dumps(data, indent=2)))


def test_integer_in_float_field_loads_as_float(tmp_path):
    data = json.loads(_saved_text(tmp_path))
    record = data["traces"]["1"]["records"][0]
    record["span"] = 3
    loaded = load_traces(_write(tmp_path, json.dumps(data, indent=2)))
    span = loaded[1].columns.span
    assert span.dtype == np.float64 and span[0] == 3.0


# ---------------------------------------------------------------------------
# Column checks accept exactly what the row checks accept
# ---------------------------------------------------------------------------

json_values = (
    st.booleans()
    | st.none()
    | st.text(max_size=3)
    | st.integers(-5, 5)
    | st.integers(2**62, 2**64)
    | st.sampled_from(SPECIAL_FLOATS)
    | st.floats(-5, 5)
)


def _outcome(data):
    try:
        return ("ok", trace_from_dict(data).columns)
    except (ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=200, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.sampled_from(RECORD_FIELDS),
            st.one_of(st.just("<delete>"), json_values),
        ),
        max_size=3,
    )
)
def test_column_checks_match_row_checks(edits):
    data = trace_to_dict(_deq_traces()[7])
    records = data["records"]
    for row, name, value in edits:
        record = records[row % len(records)]
        if value == "<delete>":
            record.pop(name, None)
        else:
            record[name] = value
    fast = _outcome(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces_io, "_checked_columns", lambda records: None)
        rows = _outcome(data)
    assert fast == rows
