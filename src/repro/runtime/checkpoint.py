"""Crash-safe checkpoint journal for experiment work units.

Every independent work unit of a sweep (a Figure 5 factor point, a
Figure 6 set point, one ``repro all`` experiment) gets a *content-addressed
key*: the sha256 of a canonical JSON description of everything that
determines its output (unit kind + parameters, which include the seed).
A :class:`CheckpointJournal` is a directory of one small JSON file per
completed unit, each written via :func:`~repro.runtime.atomic.write_atomic`
— so a record either exists completely or not at all, and an interrupted
sweep can resume by skipping exactly the units whose records survived.

Determinism argument: because keys hash the *inputs* and the work units
are pure functions of those inputs (the ``--jobs``/``--workers`` contract
that ``tests/test_parallel_runner.py`` checks), replaying a journaled payload is
bit-identical to re-executing the unit.  Corrupt or truncated records
(impossible under the atomic writer, but possible from external tampering)
are treated as absent, never an error — the unit simply re-runs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterator, Mapping

from .atomic import write_atomic

__all__ = ["CheckpointJournal", "unit_key", "stable_fraction"]

#: Schema stamp written into every record (bump on incompatible change).
JOURNAL_SCHEMA = 1


def _canonical(params: Mapping[str, Any]) -> str:
    """Canonical JSON of a parameter mapping (sorted keys, stable floats)."""
    return json.dumps(params, sort_keys=True, default=str, separators=(",", ":"))


def unit_key(kind: str, params: Mapping[str, Any]) -> str:
    """Content-addressed key of one work unit: ``kind`` + parameters.

    >>> unit_key("demo", {"b": 2, "a": 1}) == unit_key("demo", {"a": 1, "b": 2})
    True
    >>> unit_key("demo", {"a": 1}) != unit_key("other", {"a": 1})
    True
    """
    digest = hashlib.sha256(f"{kind}\n{_canonical(params)}".encode()).hexdigest()
    return f"{kind}-{digest[:32]}"


def stable_fraction(*parts: object) -> float:
    """Deterministic uniform-ish value in ``[0, 1)`` from arbitrary parts.

    A pure function of its arguments (sha256-based), identical across
    processes, platforms, and Python hash randomization — the primitive
    behind deterministic backoff jitter and the seeded fault schedule.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class CheckpointJournal:
    """A directory of atomically-written per-unit completion records.

    Records are durable the moment :meth:`record` returns (each is its own
    fsync'd file), so there is nothing to lose on interruption.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._payloads: dict[str, Any] = {}
        self._load()

    def _load(self) -> None:
        if not self.directory.is_dir():
            return
        for record in sorted(self.directory.glob("*.json")):
            try:
                data = json.loads(record.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # unreadable/tampered record: treat the unit as not done
            if (
                isinstance(data, dict)
                and data.get("schema") == JOURNAL_SCHEMA
                and isinstance(data.get("key"), str)
                and "payload" in data
            ):
                self._payloads[data["key"]] = data["payload"]

    def __contains__(self, key: str) -> bool:
        return key in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)

    def keys(self) -> Iterator[str]:
        yield from sorted(self._payloads)

    def payload(self, key: str) -> Any:
        """The journaled payload of a completed unit (KeyError if absent)."""
        return self._payloads[key]

    def record(self, key: str, payload: Any) -> None:
        """Durably journal one completed unit (atomic write + fsync).

        Payloads must be JSON-serializable; values that are not are
        stringified exactly as the artifact writers do (``default=str``),
        so a replayed payload re-serializes to identical artifact bytes.
        """
        body = json.dumps(
            {"schema": JOURNAL_SCHEMA, "key": key, "payload": payload},
            default=str,
        )
        write_atomic(self.directory / f"{key}.json", body)
        # keep the in-memory view consistent with what a resume would load
        self._payloads[key] = json.loads(body)["payload"]

    def clear(self) -> None:
        """Delete every record (a fresh, non-resuming run starts here)."""
        if self.directory.is_dir():
            for record in self.directory.glob("*.json"):
                try:
                    record.unlink()
                except OSError:
                    pass
        self._payloads.clear()
