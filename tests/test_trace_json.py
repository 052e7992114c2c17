"""Trace JSON is written and read by column.

The writer must emit exactly the bytes ``json.dumps(..., indent=...)`` writes
for the record-dict payload, and the loader must accept exactly what the
row-by-row loader accepts and raise exactly the error it raises.
"""

from __future__ import annotations

import functools
import json
import math
import re
import tempfile
from pathlib import Path
from typing import Any, Callable

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
from repro.workloads.jobsets import JobSetGenerator

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


#: Value pools shared by all traces of a drawn set, so that spellings repeat
#: across traces.  Both zeros and every non-finite float are in the float
#: pool; the int pools cover a range narrower than a set's rows (ints found
#: by a table over the range) next to both int64 ends, and one wider.
POOL_FLOATS = (0.0, -0.0, 1.5, 0.1 + 0.2, 5e-324, math.inf, -math.inf, math.nan)
INT_POOLS = (
    (-1, 0, 1, 2),
    (INT64_MIN, INT64_MIN + 1),
    (INT64_MAX - 2, INT64_MAX),
    (INT64_MIN, -1, 0, 7, INT64_MAX),
)


@st.composite
def pooled_trace(draw: st.DrawFn, ints: tuple[int, ...]) -> JobTrace:
    n = draw(st.integers(1, 6))
    columns = {}
    for name in RECORD_FIELDS:
        is_float = name in ("request", "span")
        pool = st.sampled_from(POOL_FLOATS if is_float else ints)
        values = draw(st.lists(pool, min_size=n, max_size=n))
        columns[name] = np.array(values, dtype=np.float64 if is_float else np.int64)
    return JobTrace(
        draw(st.sampled_from(ints)),
        TraceColumns(**columns),
        release_time=draw(st.sampled_from((0, 9, INT64_MAX))),
        job_id=draw(st.none() | st.sampled_from(ints)),
    )


@st.composite
def pooled_sets(draw: st.DrawFn) -> dict[int, JobTrace]:
    """Traces over one value pool, with empty traces drawn before, between
    and after the non-empty ones (job ids keep the drawn order)."""
    ints = draw(st.sampled_from(INT_POOLS))
    empties = st.integers(0, 2).map(lambda k: [JobTrace(5, release_time=3)] * k)
    order = draw(empties)
    for trace in draw(st.lists(pooled_trace(ints), min_size=1, max_size=4)):
        order += [trace, *draw(empties)]
    return dict(enumerate(order))


@settings(max_examples=80, deadline=None)
@given(traces=pooled_sets())
def test_file_wide_tables_in_every_layout(tmp_path_factory, traces):
    # Each field is spelled once per distinct value for the whole file, so
    # the same spellings serve many traces and many lists' first records.
    root = tmp_path_factory.mktemp("p")
    for trace in traces.values():
        path = save_trace(trace, root / "trace.json")
        assert path.read_text() == json.dumps(trace_to_dict(trace), indent=2)
    path = save_traces(traces, root / "traces.json")
    reference = {"schema": 1, "traces": traces_payload(traces)}
    assert path.read_text() == json.dumps(reference, indent=2)
    bundle = GoldenBundle(scenario={"scenario_id": "s"}, traces=traces, provenance={})
    path = save_golden_bundle(root / "g.json", bundle)
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


def _no_layout(monkeypatch) -> None:
    """Send every load down the general path, as if no file were in the
    writer's layout."""
    monkeypatch.setattr(traces_io, "_read_by_layout", lambda data, **layout: None)


def _saved_files(tmp_path) -> list[tuple[Callable[[Path], Any], Path]]:
    """A traces file, a single-trace file and a golden bundle of the DEQ
    set, each with the loader that reads it."""
    simulated = _deq_traces()
    bundle = GoldenBundle(scenario={"scenario_id": "a:b"}, traces=simulated)
    return [
        (load_traces, save_traces(simulated, tmp_path / "traces.json")),
        (load_trace, save_trace(simulated[3], tmp_path / "trace.json")),
        (load_golden_bundle, save_golden_bundle(tmp_path / "golden.json", bundle)),
    ]


def _loaded_traces(loaded: Any) -> dict[int, JobTrace]:
    if isinstance(loaded, GoldenBundle):
        return loaded.traces
    return loaded if isinstance(loaded, dict) else {3: loaded}


def test_fast_and_fallback_loads_agree(tmp_path):
    expected = _deq_traces()
    for load, path in _saved_files(tmp_path):
        by_layout = _loaded_traces(load(path))
        with pytest.MonkeyPatch.context() as patch:
            _no_layout(patch)
            parsed = _loaded_traces(load(path))
            patch.setattr(traces_io, "_checked_columns", lambda records: None)
            hooked = _loaded_traces(load(path))
        assert by_layout == parsed == hooked
        assert list(by_layout) == list(parsed) == list(hooked)
        if load is load_trace:
            assert by_layout == {3: expected[3]}
        else:
            assert by_layout == expected and list(by_layout) == sorted(expected)


def test_files_outside_the_layout_are_parsed_once(tmp_path, monkeypatch):
    # A compact or re-indented file holds no list head at the loader's
    # indent: the layout reader gives up before parsing its envelope.
    simulated = _deq_traces()
    payload = json.loads(save_traces(simulated, tmp_path / "traces.json").read_text())
    loads = traces_io._loads
    calls: list[int] = []
    monkeypatch.setattr(traces_io, "_loads", lambda text: calls.append(len(text)) or loads(text))
    for indent in (None, 4):
        path = tmp_path / f"indent-{indent}.json"
        path.write_text(json.dumps(payload, indent=indent))
        calls.clear()
        assert load_traces(path) == simulated
        assert calls == [len(path.read_text())]


def _general_path_raises(monkeypatch) -> None:
    def general(*args: Any) -> Any:
        raise AssertionError("a record list took the general path")

    monkeypatch.setattr(traces_io, "_checked_columns", general)
    monkeypatch.setattr(traces_io, "_record_values", general)


GOLDEN_FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures" / "goldens").glob("*.json"))


@pytest.mark.parametrize("fixture", GOLDEN_FIXTURES, ids=lambda p: p.stem)
def test_committed_goldens_load_by_layout(fixture, monkeypatch):
    # A writer change that leaves the layout fails here instead of quietly
    # losing the layout reader's speed.
    _general_path_raises(monkeypatch)
    assert load_golden_bundle(fixture).traces


def test_saved_files_load_by_layout(tmp_path, monkeypatch):
    sample = JobSetGenerator(64, quantum_length=100).generate(np.random.default_rng(911), 16.0)
    specs = [JobSpec(job=job, feedback=AControl(0.2)) for job in sample.jobs]
    saturated = simulate_job_set(specs, DynamicEquiPartitioning(), 64, quantum_length=100).traces
    assert len(saturated) > 20 and sum(map(len, saturated.values())) > 1000
    path = save_traces(saturated, tmp_path / "saturated.json")
    files = _saved_files(tmp_path)
    _general_path_raises(monkeypatch)
    assert load_traces(path) == saturated
    for load, saved in files:
        assert _loaded_traces(load(saved))
    empty = {1: JobTrace(5), 2: _deq_traces()[3]}
    assert load_traces(save_traces(empty, tmp_path / "empty.json")) == empty
    assert load_trace(save_trace(JobTrace(5), tmp_path / "empty-trace.json")) == JobTrace(5)


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


def _tampered(columns: TraceColumns, name: str, row: int, value: Any) -> TraceColumns:
    arrays = {n: getattr(columns, n).copy() for n in RECORD_FIELDS}
    if isinstance(value, float) and arrays[name].dtype.kind == "i":
        arrays[name] = arrays[name].astype(np.float64)
    arrays[name][row] = value
    return TraceColumns(**arrays)


@pytest.mark.parametrize(
    "name, row, value, error",
    [
        ("index", 0, 1.0, r"records\[0\]\.index must be an integer"),
        ("request", 2, math.nan, r"records\[2\]\.request must be finite"),
        ("span", 1, math.inf, r"records\[1\]\.span must be finite"),
        ("allotment", 3, 10**6, r"records\[3\]: allotment exceeds availability"),
        ("index", 2, 9, r"records\[2\]: quantum records must be appended in order"),
        ("start_step", 0, -5, None),
    ],
)
def test_columns_in_records_get_the_record_list_checks(name, row, value, error):
    # trace_from_dict takes the columns the layout reader reads as well as
    # a record list, with the same outcome for the same values.
    trace = _deq_traces()[7]
    columns = _tampered(trace.columns, name, row, value)
    as_columns = {**trace_to_dict(trace), "records": columns}
    as_records = trace_to_dict(JobTrace(trace.quantum_length, columns, job_id=7))
    outcome = _outcome(as_columns)
    assert outcome == _outcome(as_records)
    if error is None:
        assert outcome[0] == "ok"
    else:
        assert outcome[0] == "ValueError" and re.search(error, outcome[1])


# ---------------------------------------------------------------------------
# Layout reader: any edit of a saved file loads as the general path loads it
# ---------------------------------------------------------------------------

LOADERS = {load.__name__: load for load in (load_traces, load_trace, load_golden_bundle)}
FIELD_LINE = re.compile(rb'^ +"\w+": ')
EDIT_BYTES = [b" ", b"\n", b"0", b"9", b"-", b",", b".", b"e", b"{", b"}", b"]", b'"', b"\\", b"\x00", b"\xff"]
EDIT_VALUES = [
    b"true", b"NaN", b"1e400", b"-0", b"01", b"3.0", b"-1", b"0.5", b"1E2", b"7", b" 1",
    b"9" * 19, b"Infinity", b"null", b'"3"', b"1.0,", b"1.0,2.5", b"-0.0", b"[1.0]",
    b"-12345678901234567890.123456",
]
byte_edits = st.tuples(
    st.sampled_from(["delete", "insert", "replace"]), st.integers(0, 10**9), st.sampled_from(EDIT_BYTES)
)
line_edits = st.tuples(
    st.sampled_from(["duplicate", "drop", "swap", "blank", "extra"]), st.integers(0, 10**9), st.just(b"")
)
value_edits = st.tuples(st.just("value"), st.integers(0, 10**9), st.sampled_from(EDIT_VALUES))


@functools.cache
def _saved_bytes() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        return {load.__name__: path.read_bytes() for load, path in _saved_files(Path(tmp))}


def _edited(text: bytes, edits: list[tuple[str, int, bytes]]) -> bytes:
    """``text`` after byte edits, or edits of a ``"key": value`` line."""
    for kind, at, value in edits:
        if kind in ("delete", "replace"):
            at %= len(text)
            text = text[:at] + (value if kind == "replace" else b"") + text[at + 1 :]
            continue
        if kind == "insert":
            at %= len(text) + 1
            text = text[:at] + value + text[at:]
            continue
        lines = text.split(b"\n")
        keyed = [i for i, line in enumerate(lines) if FIELD_LINE.match(line)]
        i = keyed[at % len(keyed)]
        match = FIELD_LINE.match(lines[i])
        assert match is not None
        if kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "drop":
            del lines[i]
        elif kind == "swap":
            lines[i - 1], lines[i] = lines[i], lines[i - 1]
        elif kind == "blank":
            lines.insert(i, b"")
        elif kind == "extra":
            lines.insert(i, match.group(0).split(b'"')[0] + b'"extra": 1,')
        else:
            lines[i] = match.group(0) + value + (b"," if lines[i].endswith(b",") else b"")
        text = b"\n".join(lines)
    return text


def _exact(traces: dict[int, JobTrace]) -> list[Any]:
    """Everything a loaded trace holds, dtypes and float bits included."""
    return [
        (jid, t.quantum_length, t.release_time, t.job_id)
        + tuple((getattr(t.columns, n).dtype.str, getattr(t.columns, n).tobytes()) for n in RECORD_FIELDS)
        for jid, t in traces.items()
    ]


def _load_outcome(load: Callable[[Path], Any], path: Path) -> tuple[Any, ...]:
    try:
        loaded = load(path)
    except Exception as exc:  # the exception itself is the outcome compared
        return (type(exc).__name__, str(exc))
    if isinstance(loaded, GoldenBundle):
        return ("ok", _exact(loaded.traces), loaded.scenario, loaded.provenance)
    return ("ok", _exact(_loaded_traces(loaded)))


@settings(max_examples=300, deadline=None)
@given(
    loader=st.sampled_from(sorted(LOADERS)),
    edits=st.lists(byte_edits | line_edits | value_edits, min_size=1, max_size=2),
)
@example(loader="load_traces", edits=[("value", 9, b"1e400")])  # a request
@example(loader="load_traces", edits=[("value", 9, b"1.0,2.5")])
@example(loader="load_traces", edits=[("value", 14, b"NaN")])  # a span
@example(loader="load_traces", edits=[("value", 9, b"-12345678901234567890.123456")])
@example(loader="load_golden_bundle", edits=[("value", 15, b"-0.0")])
@example(loader="load_traces", edits=[("value", 20, b"true")])
@example(loader="load_traces", edits=[("swap", 15, b"")])
@example(loader="load_golden_bundle", edits=[("value", 30, b"-1")])
@example(loader="load_trace", edits=[("blank", 12, b"")])
def test_layout_reader_matches_general_path_on_edits(tmp_path_factory, loader, edits):
    path = tmp_path_factory.mktemp("edit") / "edited.json"
    path.write_bytes(_edited(_saved_bytes()[loader], edits))
    by_default = _load_outcome(LOADERS[loader], path)
    with pytest.MonkeyPatch.context() as patch:
        _no_layout(patch)
        general = _load_outcome(LOADERS[loader], path)
    assert by_default == general


def test_unedited_files_match_general_path(tmp_path):
    for name, text in _saved_bytes().items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(text)
        by_default = _load_outcome(LOADERS[name], path)
        with pytest.MonkeyPatch.context() as patch:
            _no_layout(patch)
            assert _load_outcome(LOADERS[name], path) == by_default
        assert by_default[0] == "ok"


@pytest.mark.parametrize("edit", [("delete", b""), ("insert", b" "), ("insert", b"0")])
def test_layout_reader_matches_general_path_at_every_byte(tmp_path, edit):
    # Every byte of a two-record trace file, so no structural byte of the
    # layout goes unchecked.
    columns = _deq_traces()[3].columns
    two = TraceColumns(**{n: getattr(columns, n)[:2] for n in RECORD_FIELDS})
    text = save_trace(JobTrace(20, two, job_id=3), tmp_path / "two.json").read_bytes()
    path = tmp_path / "edited.json"
    kind, value = edit
    for at in range(len(text) + 1):
        path.write_bytes(_edited(text, [(kind, at, value)]))
        by_default = _load_outcome(load_trace, path)
        with pytest.MonkeyPatch.context() as patch:
            _no_layout(patch)
            assert _load_outcome(load_trace, path) == by_default, at


def _crafted(tmp_path: Path, case: str) -> tuple[Callable[[Path], Any], bytes]:
    """A file that parses as JSON but strays from the writer's layout in a
    way no single-byte or single-line edit reaches."""
    trace = _deq_traces()[3]
    if case == "nested":
        # A list-opening line inside another list's records.
        lines = _saved_bytes()["load_traces"].split(b"\n")
        head = next(i for i, line in enumerate(lines) if line.endswith(b'"records": ['))
        return load_traces, b"\n".join(lines[: head + 20] + [lines[head]] + lines[head + 20 :])
    if case == "split-empty":
        # An empty list over two lines, each at the key's indent.
        text = save_traces({1: JobTrace(5), 3: trace}, tmp_path / "t.json").read_bytes()
        return load_traces, text.replace(b"[]", b"[\n      ]", 1)
    if case == "tiny":
        return load_traces, b"{}"
    if case == "blank-lines":
        # As many blank lines as one record has lines, then the file's end.
        text = save_trace(trace, tmp_path / "t.json").read_bytes()
        start, stop = text.index(b"[") + 1, text.rindex(b"]")
        return load_trace, text[:start] + b"\n" * (len(RECORD_FIELDS) + 3) + b"  " + text[stop:]
    # Golden bundles holding a record list in the scenario, at the depth of
    # the traces' lists.
    records = trace_to_dict(trace)["records"][:1]
    scenario = {"scenario_id": "s", "x": {"records": records}}
    if case == "scenario-records":
        bundle = GoldenBundle(scenario=scenario, traces={3: trace})
        return load_golden_bundle, save_golden_bundle(tmp_path / "g.json", bundle).read_bytes()
    if case == "moved-list":
        # The second trace's list indented apart, so the lists found still
        # number the traces.
        bundle = GoldenBundle(scenario=scenario, traces={3: trace, 7: _deq_traces()[7]})
        text = save_golden_bundle(tmp_path / "g.json", bundle).read_bytes()
        at = text.rindex(b'\n   "records": [') + 1
        return load_golden_bundle, text[:at] + b" " + text[at:]
    if case == "placeholder-in-slot":
        # A trace whose records are a string spelling the placeholder.
        payload = golden_bundle_payload(GoldenBundle(scenario=scenario, traces={3: trace}))
        payload["traces"]["3"]["records"] = traces_io._PLACEHOLDER
        return load_golden_bundle, json.dumps(payload, indent=1).encode()
    bundle = GoldenBundle(scenario={"scenario_id": "s", "note": traces_io._PLACEHOLDER}, traces={3: trace})
    return load_golden_bundle, save_golden_bundle(tmp_path / "g.json", bundle).read_bytes()


CRAFTED = [
    "tiny", "nested", "split-empty", "blank-lines", "scenario-records", "moved-list",
    "placeholder-in-slot", "scenario-placeholder",
]


@pytest.mark.parametrize("case", CRAFTED)
def test_layout_reader_matches_general_path_on_crafted_files(tmp_path, case):
    load, text = _crafted(tmp_path, case)
    path = tmp_path / "crafted.json"
    path.write_bytes(text)
    by_default = _load_outcome(load, path)
    with pytest.MonkeyPatch.context() as patch:
        _no_layout(patch)
        assert _load_outcome(load, path) == by_default
