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
Trace files hold one JSON object per quantum, but neither the writer nor
the layout reader builds a Python object per quantum:

- **Writing.** ``json.dumps`` with an ``indent`` never uses CPython's C
  encoder, so the private :func:`_dumps` encodes only the envelope (trace
  headers, scenario, provenance) that way, with a placeholder for each
  trace's ``"records"``.  It then writes every record list of the file in
  one pass: each field's column is joined across all traces and spelled
  once per distinct value, as a whole line (indent, key, value and what
  follows it), and a record is one index per field into those lines.  The
  envelope pieces and every line are joined once.  The output is byte for
  byte what ``json.dumps(..., indent=...)`` of :func:`trace_to_dict`
  writes, ``-0.0``/``NaN``/``Infinity`` spellings included.
- **Reading.** Each loader first tries :func:`_read_by_layout`, which
  accepts only the bytes :func:`_dumps` writes for that loader's indent
  and depth.  It reads every record list straight from the file bytes
  into :class:`TraceColumns` with numpy, building no per-quantum object:
  a record's lines are found from the newline offsets, each line's fixed
  text is compared against a window of its own width, ints are parsed
  from their digit windows and each distinct float spelling once.  Only
  the envelope, with a placeholder in each list's place, is parsed as
  JSON; a file with no record list line at the loader's indent is given
  up before any parsing.  The record checks run once over all of the
  file's lists together.  Any file it does not accept, the same file
  reformatted or hand-edited, takes the general path: :func:`_loads`
  parses the text with a hook that rejects the first duplicate key, and
  record fields are then type-checked per column.  Columns from the
  general path, and from a layout file whose lists fail the checks
  together, get the finiteness, record and quantum-order checks one list
  at a time; a list that fails any check goes through the row-by-row
  checks, which raise the first error in row order.  Both paths give the
  same traces, or the same error.

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


def _field_table(column: np.ndarray, lead: str, end: str) -> tuple[np.ndarray, np.ndarray]:
    """The lines ``lead + value + end`` of ``column``'s distinct values, and
    each row's index into them.

    Floats are told apart by bit pattern, so ``-0.0`` stays apart from
    ``0.0``, and spelled by one C-encoder ``json.dumps``, ``NaN`` and
    ``Infinity`` included: a float's shortest ``repr`` costs several times
    an int's.  Ints are spelled by ``str``.  An int column whose values lie
    in a range narrower than its length needs no sort: its table covers the
    whole range, ``None`` where no row holds the value, and a row's index
    is its value minus the least (docs/PERFORMANCE.md, "File-wide writer").
    """
    if column.dtype.kind == "f":
        bits, rows = np.unique(column.view(np.int64), return_inverse=True)
        spelled = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
        return np.array([lead + s + end for s in spelled], dtype=object), rows
    low, high = int(column.min()), int(column.max())
    if high - low >= len(column):
        values, rows = np.unique(column, return_inverse=True)
        table = [lead + str(v) + end for v in values.tolist()]
        return np.array(table, dtype=object), rows
    rows = column - low
    present = np.zeros(high - low + 1, dtype=bool)
    present[rows] = True
    (found,) = np.nonzero(present)
    lookup = np.empty(len(present), dtype=object)
    lookup[found] = [lead + str(v) + end for v in (found + low).tolist()]
    return lookup, rows


def _file_parts(held: list[TraceColumns], texts: list[str], indent: int, depth: int) -> list[str]:
    """The file's text in pieces: ``texts`` is the envelope cut at each
    record list, and ``held[i]`` the columns of the list between
    ``texts[i]`` and ``texts[i + 1]``, at nesting ``depth``.

    A record is its field lines.  The first field's line starts with the
    ``,\\n`` that ends the record before it, except in a list's first
    record, whose line instead starts with the envelope text before the
    list and the list's ``[``; the last field's line ends with the
    record's ``}``.  Each field's lines are spelled once per distinct value
    across the whole file (:func:`_field_table`), so a record is only one
    index per field into the tables of lines, all gathered at once.
    """
    item = " " * (indent * (depth + 1))
    inner = item + " " * indent
    close = "\n" + " " * (indent * depth) + "]"
    # The envelope text before each non-empty list, empty lists' [] included.
    before: list[str] = []
    glue = [texts[0]]
    for columns, tail in zip(held, texts[1:]):
        if len(columns):
            before.append("".join(glue))
            glue = [close, tail]
        else:
            glue += ("[]", tail)
    if not before:
        return ["".join(glue)]
    lengths = np.array([len(columns) for columns in held])
    index = np.empty((int(lengths.sum()), len(RECORD_FIELDS)), dtype=np.intp)
    tables: list[np.ndarray] = []
    offset = 0
    for k, name in enumerate(RECORD_FIELDS):
        lead = f'{inner}"{name}": '
        if k == 0:
            lead = ",\n" + item + "{\n" + lead
        end = "\n" + item + "}" if k == len(RECORD_FIELDS) - 1 else ",\n"
        column = np.concatenate([getattr(columns, name) for columns in held])
        table, index[:, k] = _field_table(column, lead, end)
        index[:, k] += offset
        tables.append(table)
        offset += len(table)
    # A list's first record: its first line without the separator, after
    # the envelope text and the list's "[".
    firsts = (np.cumsum(lengths) - lengths)[lengths > 0]
    opened = [text + "[\n" + line[2:] for text, line in zip(before, tables[0][index[firsts, 0]])]
    tables.append(np.array(opened, dtype=object))
    index[firsts, 0] = offset + np.arange(len(firsts))
    parts: list[str] = np.concatenate(tables)[index.ravel()].tolist()
    parts.append("".join(glue))
    return parts


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
    return "".join(_file_parts(held, [head, *tails], indent, depth))


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


def _columns_pass(columns: TraceColumns, rows: np.ndarray | None = None) -> bool:
    """Whether ``columns`` passes the checks a JSON record list gets: int64
    counts, finite float64 values, quanta in order, and every row passing
    :meth:`QuantumRecord.__post_init__ <repro.core.types.QuantumRecord.__post_init__>`.

    ``rows`` cuts the columns into consecutive lists of that many records,
    each of which must hold its quanta in order; by default they are one.
    """
    typed = all(
        getattr(columns, name).dtype == (np.int64 if name in _INT_RECORD_FIELDS else np.float64)
        for name in RECORD_FIELDS
    )
    if not (typed and np.isfinite(columns.request).all() and np.isfinite(columns.span).all()):
        return False
    index = np.arange(1, len(columns) + 1, dtype=np.int64)
    if rows is not None:
        index -= np.repeat(np.cumsum(rows) - rows, rows)
    in_order = np.array_equal(columns.index, index)
    return in_order and columns_valid(
        index=columns.index,
        request_int=columns.request_int,
        available=columns.available,
        allotment=columns.allotment,
        work=columns.work,
        span=columns.span,
        steps=columns.steps,
        quantum_length=columns.quantum_length,
    )


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
        except OverflowError:
            return None
    columns = TraceColumns(**arrays)
    return columns if _columns_pass(columns) else None


@dataclass(frozen=True, slots=True)
class _Checked:
    """Columns the layout reader read from a record list and checked along
    with every other list of its file: they need no check of their own."""

    columns: TraceColumns


def _columns_from_records(
    records: list[Any] | TraceColumns | _Checked, where: str
) -> TraceColumns:
    """Validated columns of a JSON record list, or of a :class:`TraceColumns`
    such as the layout reader reads from one.

    Field types, record invariants and the quantum order are checked per
    column.  If any check fails, the fields are checked again row by row and
    the rows before the first bad one are replayed one record at a time, so
    the error raised is the first one in row order — exactly what building
    the trace record by record raises.
    """
    if isinstance(records, _Checked):
        return records.columns
    if isinstance(records, TraceColumns):
        columns = records.freeze()
        if _columns_pass(columns):
            return columns
        # The same checks again on the record list the columns spell, so
        # the same error is raised.
        records = _record_dicts(columns)
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
    """Rehydrate one :class:`JobTrace`; ``where`` prefixes error paths.

    ``data["records"]`` is a JSON record list or, as the layout reader
    leaves it, a :class:`TraceColumns`; both get every record check, with
    the same errors, unless the layout reader has already checked them.
    """
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
    if not isinstance(records, (list, TraceColumns, _Checked)):
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
    data = _read(path, indent=2, depth=1)
    return trace_from_dict(data)


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


def _loads(text: str) -> Any:
    """``json.loads`` that rejects duplicate object keys instead of silently
    keeping the last one (a hand-edited fixture hazard)."""
    return json.loads(text, object_pairs_hook=_reject_duplicate_keys)


# ---------------------------------------------------------------------------
# Layout reader
# ---------------------------------------------------------------------------

#: Lines of one record object as the writer lays it out: ``{``, one line per
#: field, ``}``.
_RECORD_LINES = len(RECORD_FIELDS) + 2
_INT_FIELDS = tuple(n for n in RECORD_FIELDS if n in _INT_RECORD_FIELDS)
_FLOAT_FIELDS = tuple(n for n in RECORD_FIELDS if n not in _INT_RECORD_FIELDS)
_INT_LINES = [RECORD_FIELDS.index(n) for n in _INT_FIELDS]
_FLOAT_LINES = [RECORD_FIELDS.index(n) for n in _FLOAT_FIELDS]
#: Longest int spelling read: two uint64 words of digits.
_MAX_DIGITS = 16
#: Longest float spelling read, in uint64 words: ``json`` spells any float
#: in at most 24 bytes.
_FLOAT_WORDS = 3
#: Records checked and parsed at a time, so that a block's lines stay in
#: the CPU cache from one check to the next.
_BLOCK_RECORDS = 4096
_PLACEHOLDER_BYTES = _QUOTED_PLACEHOLDER.encode()
#: ``_KEEP[32 + p]`` keeps the bytes of a little-endian uint64 word from
#: byte ``p`` up: all of them for ``p <= 0``, none for ``p >= 8``.
_KEEP = np.array(
    [(~0 << (8 * min(max(p, 0), 8))) & 0xFFFF_FFFF_FFFF_FFFF for p in range(-32, 33)],
    dtype=np.uint64,
)
#: Eight ASCII ``"0"`` bytes, and eight spaces.
_ZEROS = np.uint64(0x3030_3030_3030_3030)
_SPACES = np.uint64(0x2020_2020_2020_2020)


def _starts_with(data: bytes, starts: np.ndarray, pattern: bytes) -> np.ndarray:
    """Whether ``pattern`` starts at each offset of ``starts`` in ``data``.

    Indexes a strided view of ``data`` that holds every ``len(pattern)``-byte
    window as one item, so only the windows picked are copied.  Each window
    must lie inside ``data``.
    """
    width = len(pattern)
    windows = np.ndarray((len(data) - width + 1,), dtype=f"S{width}", buffer=data, strides=(1,))
    return np.asarray(windows[starts] == pattern)


def _words(
    data: bytes, ends: np.ndarray, lengths: np.ndarray, count: int, fill: np.uint64
) -> list[np.ndarray]:
    """The byte strings ``data[end - length:end]`` XOR ``fill``, each
    right-aligned in ``count`` little-endian uint64 words with zero bytes on
    its left: XOR ``fill`` again pads it with ``fill``'s bytes.

    Word ``k`` holds bytes ``end - 8 * (k + 1)`` to ``end - 8 * k``, read
    from a strided view of ``data`` with one 8-byte window per offset.
    """
    windows = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    return [
        (windows[ends - 8 * (k + 1)] ^ fill) & _KEEP[8 * (k + 1) + 32 - lengths]
        for k in range(count)
    ]


def _layout_ints(data: bytes, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The unsigned JSON ints ending at ``ends``, or None unless each is
    1 to :data:`_MAX_DIGITS` digits with no leading zero.

    Eight digits at a time, as one uint64 word: XOR with ``"0"`` maps digit
    bytes, and only them, to 0-9 with no carry, and three multiply-shifts
    merge adjacent digits into pairs, pairs into fours and fours into eights.
    """
    if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
        return None
    leading = np.frombuffer(data, dtype=np.uint8)[ends - lengths] == ord("0")
    if (leading & (lengths > 1)).any():
        return None
    values = np.zeros(len(ends), dtype=np.uint64)
    words = _words(data, ends, lengths, -(-int(lengths.max()) // 8), _ZEROS)
    for k, x in enumerate(words):
        # A byte above 9 has its high bit set in x or in x + 0x76.
        if ((x | (x + 0x7676_7676_7676_7676)) & 0x8080_8080_8080_8080).any():
            return None
        x = (x * (10 * 2**8 + 1) >> 8) & 0x00FF_00FF_00FF_00FF
        x = (x * (100 * 2**16 + 1) >> 16) & 0x0000_FFFF_0000_FFFF
        values += (x * (10_000 * 2**32 + 1) >> 32) * 10 ** (8 * k)
    return values.view(np.int64)


def _layout_floats(spellings: list[np.ndarray]) -> np.ndarray | None:
    """The JSON floats of ``spellings`` (:data:`_FLOAT_WORDS` words
    of each, as :func:`_words` holds them with ``fill`` spaces), or None.

    Each distinct spelling is parsed once, in one ``json.loads`` of them
    all, which reads it as the general path would: a spelling that is not
    one number fails to parse, or parses to a count or type of values that
    gives up.  An integer spelling gives up too, since the writer spells
    every float field as a float.  ``NaN`` and ``Infinity`` are read here
    and rejected with the general path's error when the trace is built.
    """
    order = np.lexsort(spellings)
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for word in spellings:
        ranked = word[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    distinct = np.stack(spellings[::-1], axis=1)[order[new]] ^ _SPACES
    text = np.full((len(distinct), 8 * _FLOAT_WORDS + 1), ord(","), dtype=np.uint8)
    text[:, :-1] = distinct.astype("<u8", copy=False).view(np.uint8)
    try:
        parsed = json.loads(b"[" + text.tobytes()[:-1] + b"]")
    except ValueError:
        return None
    if len(parsed) != len(distinct) or not {float}.issuperset(map(type, parsed)):
        return None
    return np.array(parsed, dtype=np.float64)[inverse]


def _layout_block(
    data: bytes, anchors: np.ndarray, last: np.ndarray, item: bytes, prefixes: list[bytes]
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """The int fields of a block of records, one row per field, and the
    spelling words of its float fields; None unless every record of the
    block is laid out exactly as :func:`_records_json` writes it.

    Row ``r`` of ``anchors`` holds the offsets of the newlines that open
    the :data:`_RECORD_LINES` lines of record ``r``, and ``last[r]`` tells
    whether it ends its list.  Each line is checked from the newline (or
    the comma and newline) before it against the bytes the writer puts
    there; what is left of a field line is its value.
    """
    closing = b"\n" + item + b"}"
    after = anchors[:, -1] + len(closing)
    u8 = np.frombuffer(data, dtype=np.uint8)
    if not (
        _starts_with(data, anchors[:, 0], b"\n" + item + b"{\n" + prefixes[0]).all()
        and all(
            _starts_with(data, anchors[:, line] - 1, b",\n" + prefix).all()
            for line, prefix in enumerate(prefixes[1:], 2)
        )
        and _starts_with(data, anchors[:, -1], closing).all()
        and (u8[after] == np.where(last, ord("\n"), ord(","))).all()
        and (u8[after[~last] + 1] == ord("\n")).all()
    ):
        return None
    # Field f fills line f + 1 after its prefix, up to the comma that ends
    # every field line but the last.
    comma = np.arange(len(RECORD_FIELDS)) < len(RECORD_FIELDS) - 1
    ends = (anchors[:, 2:] - comma).T
    lengths = ends - anchors[:, 1:-1].T - np.array([len(p) + 1 for p in prefixes])[:, None]
    ints = _layout_ints(data, ends[_INT_LINES].ravel(), lengths[_INT_LINES].ravel())
    floats = lengths[_FLOAT_LINES]
    if ints is None or floats.min() < 1 or floats.max() > 8 * _FLOAT_WORDS:
        return None
    words = _words(data, ends[_FLOAT_LINES].ravel(), floats.ravel(), _FLOAT_WORDS, _SPACES)
    return ints.reshape(len(_INT_LINES), -1), [w.reshape(floats.shape) for w in words]


def _layout_columns(
    data: bytes, anchors: np.ndarray, rows: np.ndarray, indent: int, depth: int
) -> list[TraceColumns] | list[_Checked] | None:
    """The columns of each record list, or None unless every record is laid
    out exactly as :func:`_records_json` writes it; ``rows[i]`` counts the
    records of list ``i``, and ``anchors`` is as :func:`_layout_block`
    takes it, for all of them.

    The record checks run once, over all the lists' columns together: if
    they pass, each list's columns come back :class:`_Checked`; if not,
    unchecked, for each list's own checks to find its first error.
    """
    if not len(anchors):
        return [TraceColumns.empty() for _ in rows]
    item = b" " * (indent * (depth + 1))
    prefixes = [b" " * (indent * (depth + 2)) + b'"%s": ' % n.encode() for n in RECORD_FIELDS]
    # How far past its anchor each window of _layout_block reaches: those
    # of the last record reach furthest.
    reach = [len(item) + 3 + len(prefixes[0]), 0, *(len(p) + 1 for p in prefixes[1:]), len(item) + 4]
    if (anchors[-1] + reach).max() > len(data):
        return None
    last = np.zeros(len(anchors), dtype=bool)
    last[np.cumsum(rows)[rows > 0] - 1] = True
    ints, spellings = [], []
    for start in range(0, len(anchors), _BLOCK_RECORDS):
        block = slice(start, start + _BLOCK_RECORDS)
        read = _layout_block(data, anchors[block], last[block], item, prefixes)
        if read is None:
            return None
        ints.append(read[0])
        spellings.append(read[1])
    floats = _layout_floats([np.concatenate(w, axis=1).ravel() for w in zip(*spellings)])
    if floats is None:
        return None
    fields = {
        **dict(zip(_INT_FIELDS, np.concatenate(ints, axis=1))),
        **dict(zip(_FLOAT_FIELDS, floats.reshape(len(_FLOAT_FIELDS), -1))),
    }
    bounds = np.concatenate(([0], np.cumsum(rows))).tolist()
    lists = [
        TraceColumns(**{name: column[a:b] for name, column in fields.items()})
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    if _columns_pass(TraceColumns(**fields), rows):
        return [_Checked(columns) for columns in lists]
    return lists


def _read_by_layout(data: bytes, *, indent: int, depth: int) -> Any | None:
    """The payload of a trace file in the layout ``_dumps(..., indent=indent,
    depth=depth)`` writes, each trace holding its :class:`TraceColumns`
    (:class:`_Checked` when every list passed the record checks) as
    ``"records"``; None to give the file to the general path.

    A record list opens on a line ``"records": [`` and closes on the next
    line ``]``, both at the key's indent; a file with no such opening line
    is given up before any parsing.  The envelope left when each list is
    cut out for the placeholder goes to :func:`_loads`; its trace objects
    are the payload itself at depth 1, else the values of its
    ``"traces"``, in document order.  The lists must land one to each
    trace's ``"records"``.  The placeholder holds a NUL, which JSON spells
    only as ``\\u0000``; the envelope may spell it once per list, so each
    placeholder it holds stands for one.
    """
    lead = b" " * (indent * depth)
    head, tail = b"\n" + lead + b'"records": [', b"\n" + lead + b"]"
    if len(data) < len(head):
        return None  # too short to hold a list, or a window of one
    u8 = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(u8 == ord("\n"))
    # One byte after the indent picks the lines that may open or close a
    # list; a window of the whole pattern checks them.
    near = newlines[: np.searchsorted(newlines, len(data) - len(tail), side="right")]
    marker = u8[near + len(lead) + 1]
    tails = near[marker == ord("]")]
    tails = tails[_starts_with(data, tails, tail)]
    heads = near[(marker == ord('"')) & (near <= len(data) - len(head))]
    heads = heads[_starts_with(data, heads, head)] + len(head)
    if not len(heads):
        return None  # no list to read: give up before any parsing
    empty = u8[np.minimum(heads, len(data) - 1)] == ord("]")
    after = np.searchsorted(tails, heads, side="right")
    if (after[~empty] == len(tails)).any():
        return None
    closes = heads.copy()
    closes[~empty] = tails[after[~empty]]
    # A list opening inside another closes where that one does: the two
    # placeholders then stand side by side, which no JSON parses.
    envelope: list[bytes] = []
    done = 0
    for opened, closed, none in zip(heads.tolist(), closes.tolist(), empty.tolist()):
        envelope += (data[done : opened - 1], _PLACEHOLDER_BYTES)
        done = opened + 1 if none else closed + len(tail)
    envelope.append(data[done:])
    text = b"".join(envelope)
    if text.count(b"\\u0000") != len(heads):
        return None
    try:
        payload = _loads(text.decode("ascii"))
    except ValueError:
        return None
    if depth == 1:
        objects = [payload] if type(payload) is dict else None
    else:
        objects = _trace_objects(payload)
    if objects is None or len(objects) != len(heads):
        return None
    if any(obj.get("records") != _PLACEHOLDER for obj in objects):
        return None
    # A non-empty list's lines run from the newline after its "[" to the
    # newline before its "]"; an empty list holds none.
    first, stop = np.searchsorted(newlines, heads), np.searchsorted(newlines, closes)
    lines = stop - first
    if (newlines[first[~empty]] != heads[~empty]).any() or (lines % _RECORD_LINES).any():
        return None
    slices = [newlines[a:b] for a, b in zip(first.tolist(), stop.tolist())]
    anchors = np.concatenate([newlines[:0], *slices]).reshape(-1, _RECORD_LINES)
    columns = _layout_columns(data, anchors, lines // _RECORD_LINES, indent, depth)
    if columns is None:
        return None
    for obj, read in zip(objects, columns):
        obj["records"] = read
    return payload


def _trace_objects(payload: Any) -> list[Any] | None:
    """The trace objects of a traces file or golden bundle payload."""
    traces = payload.get("traces") if type(payload) is dict else None
    if type(traces) is not dict or not all(type(t) is dict for t in traces.values()):
        return None
    return list(traces.values())


def _read(path: str | Path, *, indent: int, depth: int) -> Any:
    """The parsed payload of a trace file: by layout if it is in the
    writer's, else by :func:`_loads` of its text."""
    payload = _read_by_layout(Path(path).read_bytes(), indent=indent, depth=depth)
    return payload if payload is not None else _loads(Path(path).read_text())


def load_traces(path: str | Path) -> dict[int, JobTrace]:
    data = _read(path, indent=2, depth=3)
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
    data = _read(path, indent=1, depth=3)
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
    declared, digest = data.get("digest"), bundle.digest
    if declared != digest:
        raise ValueError(
            f"golden bundle {path} digest mismatch: file declares {declared!r} "
            f"but contents hash to {digest!r} (edited without re-recording?)"
        )
    return bundle
