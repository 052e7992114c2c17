"""Tests for the crash-safe write/checkpoint layer (``repro.runtime``)."""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    CheckpointJournal,
    stable_fraction,
    unit_key,
    write_atomic,
)
from repro.runtime.checkpoint import JOURNAL_SCHEMA


class TestWriteAtomic:
    def test_writes_and_returns_path(self, tmp_path):
        target = write_atomic(tmp_path / "a.json", "[1, 2]")
        assert target.read_text() == "[1, 2]"

    def test_creates_parent_directories(self, tmp_path):
        target = write_atomic(tmp_path / "deep" / "er" / "a.txt", "x")
        assert target.read_text() == "x"

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "a.txt"
        write_atomic(path, "old")
        write_atomic(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_litter(self, tmp_path):
        write_atomic(tmp_path / "a.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failure_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "a.txt"
        write_atomic(path, "original")
        # a non-str payload raises inside the write; the target must survive
        # and the temp file must be cleaned up
        with pytest.raises(TypeError):
            write_atomic(path, object())  # type: ignore[arg-type]
        assert path.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_parent_directory_fd_is_fsynced(self, tmp_path, monkeypatch):
        # the rename lives in the directory entry: after os.replace the
        # parent dir fd itself must be flushed for the write to be durable
        import os
        import stat

        synced: list[os.stat_result] = []
        real_fsync = os.fsync

        def recording_fsync(fd: int) -> None:
            synced.append(os.fstat(fd))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        write_atomic(tmp_path / "a.txt", "x")
        dir_stat = os.stat(tmp_path)
        dir_syncs = [s for s in synced if stat.S_ISDIR(s.st_mode)]
        assert dir_syncs, "parent directory fd was never fsynced"
        assert any(
            s.st_ino == dir_stat.st_ino and s.st_dev == dir_stat.st_dev
            for s in dir_syncs
        ), "a directory was fsynced, but not the target's parent"
        # the data fd is still flushed too (a regular file, before the dir)
        assert any(stat.S_ISREG(s.st_mode) for s in synced)

    def test_failure_path_skips_dir_fsync_and_cleans_temp(
        self, tmp_path, monkeypatch
    ):
        import os
        import stat

        synced: list[os.stat_result] = []
        real_fsync = os.fsync

        def recording_fsync(fd: int) -> None:
            synced.append(os.fstat(fd))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        with pytest.raises(TypeError):
            write_atomic(tmp_path / "a.txt", object())  # type: ignore[arg-type]
        # no rename happened, so no directory flush — and no temp litter
        assert not any(stat.S_ISDIR(s.st_mode) for s in synced)
        assert list(tmp_path.iterdir()) == []

    def test_dir_fsync_is_best_effort(self, tmp_path, monkeypatch):
        # platforms where directories cannot be fsynced must not break the
        # write: an OSError from the directory flush is swallowed
        import os

        real_fsync = os.fsync

        def flaky_fsync(fd: int) -> None:
            import stat as stat_mod

            if stat_mod.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("directory fsync unsupported")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        target = write_atomic(tmp_path / "a.txt", "x")
        assert target.read_text() == "x"


class TestUnitKey:
    def test_order_independent(self):
        assert unit_key("k", {"a": 1, "b": 2}) == unit_key("k", {"b": 2, "a": 1})

    def test_kind_and_params_distinguish(self):
        assert unit_key("k", {"a": 1}) != unit_key("j", {"a": 1})
        assert unit_key("k", {"a": 1}) != unit_key("k", {"a": 2})

    def test_key_shape(self):
        key = unit_key("fig5-factor", {"seed": 42})
        assert key.startswith("fig5-factor-")
        assert len(key.rsplit("-", 1)[1]) == 32


class TestStableFraction:
    def test_deterministic(self):
        assert stable_fraction(1, "k", 3) == stable_fraction(1, "k", 3)

    def test_in_unit_interval(self):
        values = [stable_fraction(i, "gate") for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_sensitive_to_every_part(self):
        base = stable_fraction(1, "k", 0)
        assert stable_fraction(2, "k", 0) != base
        assert stable_fraction(1, "j", 0) != base
        assert stable_fraction(1, "k", 1) != base


class TestCheckpointJournal:
    def test_record_and_reload(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record("unit-a", {"rows": [1, 2]})
        journal.record("unit-b", {"rows": [3]})
        reloaded = CheckpointJournal(tmp_path / "j")
        assert len(reloaded) == 2
        assert "unit-a" in reloaded
        assert reloaded.payload("unit-a") == {"rows": [1, 2]}
        assert list(reloaded.keys()) == ["unit-a", "unit-b"]

    def test_payload_round_trips_through_json(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record("u", {"t": (1, 2)})  # tuples stringify like artifacts do
        assert journal.payload("u") == json.loads(json.dumps({"t": (1, 2)}))

    def test_corrupt_record_treated_as_absent(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record("u", 1)
        (tmp_path / "j" / "u.json").write_text("{ truncated")
        assert "u" not in CheckpointJournal(tmp_path / "j")

    def test_schema_mismatch_treated_as_absent(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record("u", 1)
        (tmp_path / "j" / "u.json").write_text(
            json.dumps({"schema": JOURNAL_SCHEMA + 1, "key": "u", "payload": 1})
        )
        assert "u" not in CheckpointJournal(tmp_path / "j")

    def test_clear_removes_records(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record("u", 1)
        journal.clear()
        assert len(journal) == 0
        assert len(CheckpointJournal(tmp_path / "j")) == 0

    def test_missing_directory_is_empty(self, tmp_path):
        assert len(CheckpointJournal(tmp_path / "nope")) == 0


class TestJournalCompaction:
    """Journals do not compact.  A ``_segment.json`` that the compaction of
    older versions left behind is not a record: its units re-run."""

    @staticmethod
    def _leftover_segment(directory, body=None):
        if body is None:
            body = json.dumps({"schema": JOURNAL_SCHEMA, "segment": {"unit-a": 1}})
        (directory / "_segment.json").write_text(body)

    def test_clear_removes_segment(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record("u", 1)
        self._leftover_segment(tmp_path / "j")
        journal.clear()
        assert not list((tmp_path / "j").glob("*.json"))
        assert len(CheckpointJournal(tmp_path / "j")) == 0

    def test_tampered_segment_treated_as_absent(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j")
        journal.record("u", 1)
        for body in (None, "{ truncated"):
            self._leftover_segment(tmp_path / "j", body)
            reloaded = CheckpointJournal(tmp_path / "j")
            assert list(reloaded.keys()) == ["u"]
            assert reloaded.payload("u") == 1
