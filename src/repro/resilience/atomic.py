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

Checkpoint lines, journal lines and cache entries share one record
format, whose only codec is :func:`encode_record` / :func:`decode_record`:
a canonical JSON object carrying its ``schema`` and a CRC-32 of itself.
Readers only *detect* a bad record (the solve that made it is
recomputable); :func:`read_records` and :func:`move_aside` keep the
rejected bytes as evidence (docs/resilience.md).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "append_text", "atomic_write_text", "durable_append_text",
    "fsync_path", "record_crc", "encode_record", "parse_record",
    "decode_record", "read_records", "move_aside",
]


def _fsync_dir(parent: Path) -> None:
    """Best-effort fsync of a directory entry (rename/create durability)."""
    with contextlib.suppress(OSError):
        dir_fd = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def append_text(path: Path | str, text: str | bytes) -> int:
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
        handle.write(text if isinstance(text, bytes) else text.encode("utf-8"))
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


def durable_append_text(path: Path | str, text: str | bytes) -> int:
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
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


def record_crc(record: dict[str, Any]) -> str:
    """CRC-32 (8 hex digits) of a record's canonical JSON, sans ``crc``."""
    body = {key: value for key, value in record.items() if key != "crc"}
    text = json.dumps(body, sort_keys=True)
    return f"{zlib.crc32(text.encode('utf-8')) & 0xFFFFFFFF:08x}"


def encode_record(record: dict[str, Any], schema: int) -> str:
    """Stamp ``schema`` and ``crc`` into ``record``; return its JSON line
    (canonical, no trailing newline)."""
    record["schema"] = schema
    record["crc"] = record_crc(record)
    return json.dumps(record, sort_keys=True)


def parse_record(raw: bytes) -> dict[str, Any] | None:
    """``raw`` as a JSON object if it is one in strict UTF-8, else
    ``None``; never raises, since a record file may hold any bytes."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    return record if isinstance(record, dict) else None


def decode_record(raw: bytes, schema: int) -> dict[str, Any] | None:
    """The record :func:`encode_record` wrote as ``raw``, or ``None``:
    ``raw`` must parse and carry ``schema`` and a matching string ``crc``.
    Never raises; callers add only their own field checks."""
    record = parse_record(raw)
    if record is None or record.get("schema") != schema:
        return None
    crc = record.get("crc")
    if not isinstance(crc, str) or crc != record_crc(record):
        return None
    return record


def read_records(
    path: Path,
    decode: Callable[[bytes], dict[str, Any] | None],
    quarantine_path: Path,
    accept: Callable[[int, dict[str, Any]], None],
) -> int:
    """Decode a record file line by line (split on ``b"\\n"`` only).

    ``accept(offset, record)`` sees each line ``decode`` accepts, in file
    order, with its start offset; the original bytes of the rejected
    lines are durably appended to ``quarantine_path``, and their count
    is returned.  Blank lines are skipped.
    """
    rejected: list[bytes] = []
    offset = 0
    with open(path, "rb") as handle:
        for raw in handle:
            start, offset = offset, offset + len(raw)
            line = raw.removesuffix(b"\n")
            if not line.strip():
                continue
            record = decode(line)
            if record is None:
                rejected.append(line)
            else:
                accept(start, record)
    if rejected:
        # Evidence must survive the very crashes it documents.
        durable_append_text(quarantine_path, b"\n".join(rejected) + b"\n")
    return len(rejected)


def move_aside(path: Path, target: Path) -> Path | None:
    """Move ``path`` to ``target``, or to ``target`` + ``1``, ``2``, ...
    if that exists, so earlier evidence is never overwritten.  Returns the
    new path, or ``None`` if a racing mover already took the file."""
    target.parent.mkdir(parents=True, exist_ok=True)
    candidate, i = target, 1
    while candidate.exists():
        candidate = target.with_name(f"{target.name}{i}")
        i += 1
    try:
        os.replace(path, candidate)
    except FileNotFoundError:
        return None
    return candidate
