"""Serialization of job traces, simulation results, and golden bundles.

Traces round-trip through plain JSON so experiment outputs can be archived,
diffed across code versions, or analyzed outside Python.  The schema is
versioned; loading rejects unknown versions rather than guessing.

Loading is *hardened*: a missing or mistyped record field, a non-finite
float, or a duplicate job id raises :class:`ValueError` naming the exact
field path (``traces['3'].records[7].span``) instead of leaking a
``KeyError``/``TypeError`` from deep inside the record constructor — a
corrupted or hand-edited fixture fails with a diagnosis, not a traceback.

Column-wise IO
--------------
Trace files hold one JSON object per quantum, but neither direction builds
those objects one field at a time:

- **Writing.** ``json.dumps`` with an ``indent`` never uses CPython's C
  encoder, so the private :func:`_dumps` encodes only the envelope (trace
  headers, scenario, provenance) that way, with a placeholder for each
  trace's ``"records"``.  It then splices in each record list, formatted
  from the trace's columns with one ``%``-template per row.  The output is
  byte for byte what ``json.dumps(..., indent=...)`` of
  :func:`trace_to_dict` writes, ``NaN``/``Infinity`` spellings included.
- **Reading.** :func:`_loads` parses with the plain C decoder, which keeps
  the last of two duplicate keys.  Every key in the text is followed by a
  ``:``, so the text's colon count equals the parsed payload's key count
  exactly when no key was dropped and no string holds a colon.  On any
  other count the text is parsed again with a hook that rejects the first
  duplicate key.  Record fields are type-checked per column, and the key
  count reuses that check: a ``"records"`` list whose objects each hold
  exactly the ten record fields and pass it is counted from its length
  and keeps its checked columns, so no record value is visited twice.  A
  record list that fails the column check is counted key by key, so the
  duplicate-key check still comes first, and then goes through the
  row-by-row checks, which raise the first error in row order.

Golden bundles
--------------
A *golden bundle* is the unit the regression harness (:mod:`repro.goldens`)
records and replays: one scenario specification plus the known-good traces
of its reference execution, with provenance (git revision, schema versions,
scenario id) and a content digest over the behavioural payload.  The digest
deliberately excludes provenance, so two recordings that simulate
identically have equal digests regardless of the revision that produced
them — the property the fixture-freshness CI check relies on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np

from ..core.columnar import RECORD_FIELDS, TraceColumns
from ..core.types import JobTrace, QuantumRecord, columns_valid
from ..runtime import write_atomic

__all__ = [
    "SCHEMA_VERSION",
    "GOLDEN_SCHEMA_VERSION",
    "GoldenBundle",
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
    "save_traces",
    "load_traces",
    "traces_payload",
    "traces_from_payload",
    "golden_digest",
    "golden_bundle_payload",
    "save_golden_bundle",
    "load_golden_bundle",
]

SCHEMA_VERSION = 1

#: Schema of the golden-bundle envelope (scenario + traces + provenance).
GOLDEN_SCHEMA_VERSION = 1

#: Record fields carrying integer counts (bools are rejected: JSON ``true``
#: in a count field is a corruption, not a one).
_INT_RECORD_FIELDS = frozenset(
    (
        "index",
        "request_int",
        "available",
        "allotment",
        "work",
        "steps",
        "quantum_length",
        "start_step",
    )
)


def _require_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {path} must be an integer, got {value!r}")
    return value


def _require_finite(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {path} must be a finite number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"field {path} must be finite, got {out!r}")
    return out


def _trace_object(trace: JobTrace, records: Any) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "quantum_length": trace.quantum_length,
        "release_time": trace.release_time,
        "job_id": trace.job_id,
        "records": records,
    }


def _record_dicts(columns: TraceColumns) -> list[dict[str, Any]]:
    rows = zip(*(getattr(columns, name).tolist() for name in RECORD_FIELDS))
    return [dict(zip(RECORD_FIELDS, row)) for row in rows]


def trace_to_dict(trace: JobTrace) -> dict[str, Any]:
    return _trace_object(trace, _record_dicts(trace.columns))


# ---------------------------------------------------------------------------
# Column-wise writer
# ---------------------------------------------------------------------------

#: Stands in for a record list while ``json.dumps`` encodes the envelope.
_PLACEHOLDER = "\x00abg-records"
_QUOTED_PLACEHOLDER = json.dumps(_PLACEHOLDER)


def _json_floats(column: np.ndarray) -> list[str]:
    """A float column's values as ``json`` spells them, ``NaN`` and
    ``Infinity`` included.

    The C encoder spells each distinct bit pattern once (``-0.0`` stays
    apart from ``0.0``): a float's shortest ``repr`` costs several times an
    int's, and a saturated set's ``span`` and ``request`` columns hold few
    distinct values (docs/PERFORMANCE.md, "Trace JSON save and load").
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    spelled = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    result: list[str] = np.array(spelled, dtype=object)[inverse].tolist()
    return result


def _records_json(columns: TraceColumns, indent: int, depth: int) -> str:
    """The record list ``json.dumps(..., indent=indent)`` writes for
    ``columns`` when its key sits at nesting ``depth``.  ``%r`` of a python
    int (what ``tolist`` returns) is the spelling ``json`` writes."""
    if not len(columns):
        return "[]"
    item = " " * (indent * (depth + 1))
    inner = " " * (indent * (depth + 2))
    fields: list[str] = []
    values: list[list[Any]] = []
    for name in RECORD_FIELDS:
        column = getattr(columns, name)
        if column.dtype.kind == "f":
            fields.append(f'{inner}"{name}": %s')
            values.append(_json_floats(column))
        else:
            fields.append(f'{inner}"{name}": %r')
            values.append(column.tolist())
    row = item + "{\n" + ",\n".join(fields) + "\n" + item + "}"
    rows = ",\n".join(map(row.__mod__, zip(*values)))
    return "[\n" + rows + "\n" + " " * (indent * depth) + "]"


def _dumps(payload: dict[str, Any], *, indent: int, depth: int) -> str:
    """``json.dumps(payload, indent=indent)`` of a payload whose trace objects
    hold their :class:`TraceColumns` as ``"records"``, each at nesting
    ``depth``: the bytes are those of the same payload holding
    :func:`trace_to_dict` record lists."""
    held: list[TraceColumns] = []

    def hold(value: Any) -> str:
        if not isinstance(value, TraceColumns):
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )
        held.append(value)
        return _PLACEHOLDER

    head, *tails = json.dumps(payload, indent=indent, default=hold).split(
        _QUOTED_PLACEHOLDER
    )
    if len(tails) != len(held):
        # Some string of the envelope spells the placeholder too.
        return json.dumps(payload, indent=indent, default=_record_dicts)
    parts = [head]
    for columns, tail in zip(held, tails):
        parts += (_records_json(columns, indent, depth), tail)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _record_values(raw: Any, path: str) -> tuple[Any, ...]:
    """One record's type-checked field values from a JSON object at ``path``."""
    if not isinstance(raw, dict):
        raise ValueError(f"field {path} must be an object, got {type(raw).__name__}")
    values = []
    for name in RECORD_FIELDS:
        if name not in raw:
            raise ValueError(f"missing field {path}.{name}")
        value = raw[name]
        where = f"{path}.{name}"
        if name in _INT_RECORD_FIELDS:
            values.append(_require_int(value, where))
        else:
            values.append(_require_finite(value, where))
    return tuple(values)


def _replay(rows: list[tuple[Any, ...]], where: str) -> None:
    """Append ``rows`` one record at a time: raises the error the first bad
    row's constructor or quantum-order check raises, if any."""
    columns = TraceColumns.empty()
    for i, values in enumerate(rows):
        try:
            columns.append(QuantumRecord(*values))
        except ValueError as exc:
            raise ValueError(f"invalid record at {where}.records[{i}]: {exc}") from None


def _checked_columns(records: list[Any]) -> TraceColumns | None:
    """Columns of a JSON record list if it passes every check, else None.

    The checks of :func:`_record_values`, ``from_rows`` and :func:`_replay`,
    made one column at a time.
    """
    if set(map(type, records)) != {dict}:
        return None
    arrays: dict[str, np.ndarray] = {}
    for name in RECORD_FIELDS:
        try:
            values = list(map(itemgetter(name), records))
        except KeyError:
            return None
        kinds = set(map(type, values))
        try:
            if name in _INT_RECORD_FIELDS:
                if kinds != {int}:
                    return None
                arrays[name] = np.array(values, dtype=np.int64)
            else:
                if not kinds <= {int, float}:
                    return None
                arrays[name] = np.array(values, dtype=np.float64)
                if not np.isfinite(arrays[name]).all():
                    return None
        except OverflowError:
            return None
    columns = TraceColumns(**arrays)
    in_order = np.array_equal(columns.index, np.arange(1, len(records) + 1, dtype=np.int64))
    if not in_order or not columns_valid(
        index=columns.index,
        request_int=columns.request_int,
        available=columns.available,
        allotment=columns.allotment,
        work=columns.work,
        span=columns.span,
        steps=columns.steps,
        quantum_length=columns.quantum_length,
    ):
        return None
    return columns


def _columns_from_records(records: list[Any], where: str) -> TraceColumns:
    """Validated columns of a JSON record list.

    Field types, record invariants and the quantum order are checked per
    column.  If any check fails, the fields are checked again row by row and
    the rows before the first bad one are replayed one record at a time, so
    the error raised is the first one in row order — exactly what building
    the trace record by record raises.
    """
    if type(records) is _CheckedRecords:
        return records.columns
    columns = _checked_columns(records)
    if columns is not None:
        return columns
    rows: list[tuple[Any, ...]] = []
    try:
        for i, raw in enumerate(records):
            rows.append(_record_values(raw, f"{where}.records[{i}]"))
    except ValueError:
        _replay(rows, where)
        raise
    try:
        columns = TraceColumns.from_rows(rows)
    except OverflowError:
        raise ValueError(f"a count in {where}.records exceeds the int64 range") from None
    _replay(rows, where)
    return columns


def trace_from_dict(data: dict[str, Any], *, where: str = "trace") -> JobTrace:
    """Rehydrate one :class:`JobTrace`; ``where`` prefixes error paths."""
    if not isinstance(data, dict):
        raise ValueError(f"field {where} must be an object, got {type(data).__name__}")
    version = data.get("schema")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported trace schema {version!r} at {where}")
    if "quantum_length" not in data:
        raise ValueError(f"missing field {where}.quantum_length")
    job_id = data.get("job_id")
    if job_id is not None:
        job_id = _require_int(job_id, f"{where}.job_id")
    quantum_length = _require_int(data["quantum_length"], f"{where}.quantum_length")
    release_time = _require_int(data.get("release_time", 0), f"{where}.release_time")
    records = data.get("records")
    if not isinstance(records, list):
        raise ValueError(f"field {where}.records must be a list, got {records!r}")
    return JobTrace(
        quantum_length,
        _columns_from_records(records, where),
        release_time=release_time,
        job_id=job_id,
    )


def save_trace(trace: JobTrace, path: str | Path) -> Path:
    return write_atomic(path, _dumps(_trace_object(trace, trace.columns), indent=2, depth=1))


def load_trace(path: str | Path) -> JobTrace:
    return trace_from_dict(_loads(Path(path).read_text()))


def traces_payload(traces: dict[int, JobTrace]) -> dict[str, Any]:
    """The job-id-keyed traces mapping shared by :func:`save_traces` and the
    golden-bundle envelope (ids serialized as sorted decimal strings)."""
    return {str(jid): trace_to_dict(traces[jid]) for jid in sorted(traces)}


def traces_from_payload(
    payload: Any, *, where: str = "traces"
) -> dict[int, JobTrace]:
    """Validated inverse of :func:`traces_payload`.

    Rejects non-object payloads, unparseable job-id keys, and job ids that
    collide after normalization (``"01"`` next to ``"1"``) — each with a
    :class:`ValueError` naming the offending path.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"field {where} must be an object, got {type(payload).__name__}"
        )
    out: dict[int, JobTrace] = {}
    for key, raw in payload.items():
        try:
            jid = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"bad job id {key!r} in {where}") from None
        if jid in out:
            raise ValueError(f"duplicate job id {jid} in {where}")
        out[jid] = trace_from_dict(raw, where=f"{where}[{key!r}]")
    return out


def _columns_payload(traces: dict[int, JobTrace]) -> dict[str, Any]:
    """:func:`traces_payload` with each trace's columns in place of its
    record list, for :func:`_dumps`."""
    return {str(jid): _trace_object(traces[jid], traces[jid].columns) for jid in sorted(traces)}


def save_traces(traces: dict[int, JobTrace], path: str | Path) -> Path:
    """Persist a multiprogrammed result's traces keyed by job id."""
    payload = {"schema": SCHEMA_VERSION, "traces": _columns_payload(traces)}
    return write_atomic(path, _dumps(payload, indent=2, depth=3))


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r} in JSON object")
        out[key] = value
    return out


class _CheckedRecords(list[Any]):
    """A parsed ``"records"`` list whose column check passed while
    :func:`_count_keys` counted its keys, carrying the checked columns so
    the trace loader does not check them again."""

    __slots__ = ("columns",)

    def __init__(self, records: list[Any], columns: TraceColumns) -> None:
        super().__init__(records)
        self.columns = columns


def _flat_record_columns(records: list[Any]) -> TraceColumns | None:
    """Checked columns of a record list whose objects hold exactly the
    :data:`RECORD_FIELDS` (so no nested object hides a key), else None."""
    if set(map(type, records)) != {dict} or set(map(len, records)) != {len(RECORD_FIELDS)}:
        return None
    return _checked_columns(records)


def _count_keys(value: Any) -> int:
    """Keys of every JSON object in a parsed ``value``, nested ones included.

    Walks one nesting level at a time, so a list of flat record objects
    costs a few C-level passes rather than a python call per field.  A
    ``"records"`` list whose objects all pass the column check holds
    exactly ``len(RECORD_FIELDS)`` scalar fields each: it is counted from
    its length and replaced in its parent object by a
    :class:`_CheckedRecords` holding the checked columns, which the walk
    does not enter.  Any other list, record lists with extra keys or a bad
    field included, is walked.
    """
    total = 0
    level = [value]
    while not {dict, list}.isdisjoint(map(type, level)):
        objects = [v for v in level if type(v) is dict]
        lists = [v for v in level if type(v) is list]
        total += sum(map(len, objects))
        for obj in objects:
            records = obj.get("records")
            if type(records) is list and (columns := _flat_record_columns(records)) is not None:
                obj["records"] = _CheckedRecords(records, columns)
                total += len(RECORD_FIELDS) * len(records)
        level = [*chain.from_iterable(map(dict.values, objects)), *chain.from_iterable(lists)]
    return total


def _loads(text: str) -> Any:
    """``json.loads`` that rejects duplicate object keys instead of silently
    keeping the last one (a hand-edited fixture hazard).

    The C decoder keeps the last of two equal keys; a duplicate shows as a
    payload with fewer keys than the text has colons, and so does a colon
    inside a string.  Either way the text is parsed again with a hook that
    raises on the first duplicate, as is a text the C decoder rejects.
    """
    try:
        data = json.loads(text)
    except ValueError:
        pass
    else:
        if _count_keys(data) == text.count(":"):
            return data
    return json.loads(text, object_pairs_hook=_reject_duplicate_keys)


def load_traces(path: str | Path) -> dict[int, JobTrace]:
    data = _loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"traces file {path} must hold a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported traces schema {data.get('schema')!r}")
    return traces_from_payload(data.get("traces"))


# ---------------------------------------------------------------------------
# Golden bundles (the repro.goldens fixture format)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GoldenBundle:
    """One recorded golden fixture: scenario, known-good traces, provenance.

    ``scenario`` is the opaque scenario payload (:mod:`repro.goldens.spec`
    owns its schema — the IO layer only round-trips it); ``provenance``
    carries the recording context (git revision, schema versions, reference
    execution path) and is excluded from ``digest``.
    """

    scenario: dict[str, Any]
    traces: dict[int, JobTrace]
    provenance: dict[str, Any] = field(default_factory=dict)

    @property
    def scenario_id(self) -> str:
        return str(self.scenario.get("scenario_id", "<unknown>"))

    @property
    def digest(self) -> str:
        return golden_digest(self.scenario, self.traces)


def golden_digest(scenario: dict[str, Any], traces: dict[int, JobTrace]) -> str:
    """Content digest over the behavioural payload (scenario + traces only:
    two recordings that simulate identically digest identically)."""
    canonical = json.dumps(
        {"scenario": scenario, "traces": traces_payload(traces)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _golden_envelope(bundle: GoldenBundle, traces: dict[str, Any]) -> dict[str, Any]:
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "kind": "abg-golden-bundle",
        "trace_schema": SCHEMA_VERSION,
        "scenario": bundle.scenario,
        "provenance": bundle.provenance,
        "digest": bundle.digest,
        "traces": traces,
    }


def golden_bundle_payload(bundle: GoldenBundle) -> dict[str, Any]:
    """The JSON envelope of one golden fixture file."""
    return _golden_envelope(bundle, traces_payload(bundle.traces))


def save_golden_bundle(path: str | Path, bundle: GoldenBundle) -> Path:
    payload = _golden_envelope(bundle, _columns_payload(bundle.traces))
    return write_atomic(path, _dumps(payload, indent=1, depth=3))


def load_golden_bundle(path: str | Path) -> GoldenBundle:
    """Load and validate one golden fixture.

    Raises :class:`ValueError` (never ``KeyError``/``TypeError``) on an
    unknown schema, a malformed scenario/traces payload, or a digest
    mismatch (the fixture bytes were edited without re-recording).
    """
    data = _loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"golden bundle {path} must hold a JSON object")
    if data.get("schema") != GOLDEN_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported golden-bundle schema {data.get('schema')!r} in {path}"
        )
    if data.get("trace_schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema {data.get('trace_schema')!r} in {path}"
        )
    scenario = data.get("scenario")
    if not isinstance(scenario, dict):
        raise ValueError(f"field scenario must be an object in {path}")
    provenance = data.get("provenance")
    if not isinstance(provenance, dict):
        raise ValueError(f"field provenance must be an object in {path}")
    traces = traces_from_payload(data.get("traces"))
    bundle = GoldenBundle(scenario=scenario, traces=traces, provenance=provenance)
    declared = data.get("digest")
    if declared != bundle.digest:
        raise ValueError(
            f"golden bundle {path} digest mismatch: file declares {declared!r} "
            f"but contents hash to {bundle.digest!r} (edited without re-recording?)"
        )
    return bundle
