"""Crash-safe file writes: temp file + fsync + atomic rename.

A plain ``path.write_text`` truncates the destination before writing, so a
crash (or an OOM kill) mid-write leaves a corrupted, half-written file --
which for the best-known store or a checkpoint means losing *all* prior
work, not just the interrupted record.  :func:`atomic_write_text` writes
the full payload to a temporary file in the same directory, flushes it to
disk, and atomically renames it over the destination, so readers only ever
observe either the old complete content or the new complete content.

:func:`durable_append_text` is the append-side sibling for write-ahead
logs (the service's job journal, quarantine sidecars): appends cannot go
through rename without rewriting the whole file, so durability comes from
``flush`` + ``fsync`` after every append instead.  A crash mid-append can
leave at most one torn tail line, which is exactly the corruption shape
the CRC-guarded JSONL readers quarantine; everything fsync'd before the
crash is complete and intact.  These two helpers are the *only* sanctioned
ways for ``repro.service`` / ``repro.resilience`` modules to persist state
(lint rule RPL010 flags bare writes).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

__all__ = [
    "append_text", "atomic_write_bytes", "atomic_write_text",
    "durable_append_text", "fsync_path",
]


def _fsync_dir(parent: Path) -> None:
    """Best-effort fsync of a directory entry (rename/create durability)."""
    with contextlib.suppress(OSError):
        dir_fd = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def append_text(path: Path | str, text: str) -> int:
    """Append ``text`` to ``path`` (flushed, **not** fsync'd); returns
    the start byte offset of the appended text.

    This is the serialization half of :func:`durable_append_text`,
    split out for writers that must order appends under a lock but keep
    the slow fsync *outside* the critical section (lint rule RPL013):
    the caller appends under its lock, releases, then calls
    :func:`fsync_path` before acknowledging — fsync flushes the whole
    file, so a later append's sync also covers every earlier one.  A
    record is NOT crash-durable until ``fsync_path`` returns.
    """
    path = Path(path)
    created = not path.exists()
    if created:
        path.parent.mkdir(parents=True, exist_ok=True)
    # This *is* the shared durable-append primitive RPL010 points at;
    # callers pair it with fsync_path before acknowledging the record.
    with open(path, "ab") as handle:  # repro-lint: disable=RPL010 -- serialization half of the sanctioned durable-append primitive; fsync_path pairs with it before any ack
        # O_APPEND leaves the nominal position at 0 on some platforms;
        # seek to the end so the returned offset is the true record start.
        handle.seek(0, os.SEEK_END)
        offset = handle.tell()
        handle.write(text.encode("utf-8"))
        handle.flush()
    if created:
        _fsync_dir(path.parent)
    return offset


def fsync_path(path: Path | str) -> None:
    """Flush ``path``'s written data to stable storage.

    Opened read-only: fsync is a property of the *file*, not the
    writing handle, so this flushes every append that preceded it —
    which is what lets concurrent appenders share one sync point.
    """
    fd = os.open(Path(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def durable_append_text(path: Path | str, text: str) -> int:
    """Durably append ``text`` to ``path``; returns the start byte offset.

    The bytes are flushed and fsync'd before returning, so once this
    function returns the appended record survives a crash or power loss
    (a crash *during* the append can leave one torn tail line — readers
    must tolerate and quarantine it).  When the call creates the file,
    the directory entry is fsync'd too.  The returned offset is where
    the appended text begins, which lets journal writers index records
    for seek-based read-through without re-scanning the file.
    """
    offset = append_text(path, text)
    fsync_path(path)
    return offset


def atomic_write_text(path: Path | str, text: str) -> None:
    """Atomically replace ``path``'s content with ``text``.

    The temporary file lives in the destination directory (``os.replace``
    must not cross filesystems) and is fsync'd before the rename; the
    directory entry is fsync'd after, so the rename itself survives a
    power loss.  On any failure the temporary file is removed and the
    destination is untouched.
    """
    _atomic_write(path, text, "w")


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """:func:`atomic_write_text` for a binary payload."""
    _atomic_write(path, data, "wb")


def _atomic_write(path: Path | str, payload: str | bytes, mode: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    # Durability of the rename: fsync the containing directory (best
    # effort -- not every platform allows opening directories).
    _fsync_dir(path.parent)
