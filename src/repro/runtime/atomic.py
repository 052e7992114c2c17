"""Crash-safe file writes: temp file + fsync + atomic rename + dir fsync.

Every artifact the repo persists (experiment JSON, ``REPORT.md``, CSV
exports, checkpoint records, golden fixtures) goes
through :func:`write_atomic`, so an interruption at any instant — SIGKILL,
OOM, power loss — leaves either the complete previous file or the complete
new file, never a truncated hybrid.  The recipe is the standard one: write
to a uniquely-named sibling temp file, flush + ``os.fsync`` the data to
disk, ``os.replace`` onto the target (atomic on POSIX and Windows when
source and destination share a filesystem, which the sibling placement
guarantees), then ``os.fsync`` the parent *directory* — the rename lives
in the directory entry, and only the directory fsync makes it durable
across power loss.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["write_atomic"]


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry to disk so a completed rename survives power
    loss.  Best-effort: platforms/filesystems that cannot fsync a directory
    (e.g. Windows, some network mounts) are skipped — the rename itself has
    already happened, so atomicity is unaffected, only durability timing.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: str | Path, text: str, *, encoding: str = "utf-8") -> Path:
    """Atomically replace ``path``'s contents with ``text``; return the path.

    The parent directory is created if missing.  On any failure the temp
    file is removed and the target is left untouched.  After the rename the
    parent directory is fsynced, so the new entry is durable, not merely
    visible.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(target.parent)
    return target
