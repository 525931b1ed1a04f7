"""Durable per-unit progress: an append-only JSONL checkpoint store.

One study run owns one checkpoint file under ``results/checkpoints/``;
every completed work unit appends one JSON record::

    {"attempts": 1, "crc": "5f3a9c21", "key": "biskup_n10_k1_h0.4|SA_60",
     "payload": {...}, "schema": 2}

Each append rewrites the file through
:func:`repro.resilience.atomic.atomic_write_text`, so the file on disk
is always a complete snapshot.  Lines use the CRC record codec of
:mod:`repro.resilience.atomic`; a line it rejects is quarantined verbatim
to a ``<file>.quarantine`` sidecar, counted in
:attr:`CheckpointStore.skipped_lines`, and its unit simply reruns.
Legacy schema-1 lines (written before the CRC, so carrying none) are
accepted as-is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.resilience.atomic import (
    atomic_write_text,
    decode_record,
    encode_record,
    parse_record,
    read_records,
)

__all__ = ["CheckpointStore", "CHECKPOINT_SCHEMA"]

CHECKPOINT_SCHEMA = 2


def _checkpoint_record(line: bytes) -> dict[str, Any] | None:
    record = decode_record(line, CHECKPOINT_SCHEMA)
    if record is None:
        # A pre-CRC schema-1 line is trusted as-is; anything carrying a
        # crc, or another schema, had its chance above.
        record = parse_record(line)
        if record is None or "crc" in record or (
            record.get("schema", 1) != 1
        ):
            return None
    if not isinstance(record.get("key"), str) or "payload" not in record:
        return None
    return record


class CheckpointStore:
    """JSONL map from work-unit key to its completed payload.

    ``fresh=True`` (a run started without ``--resume``) discards any
    existing file so stale cells from an earlier configuration cannot leak
    into a new run; ``fresh=False`` loads existing records, quarantines
    corrupt lines, and skips the intact units.
    """

    def __init__(self, path: Path | str, fresh: bool = False) -> None:
        self.path = Path(path)
        #: Sidecar preserving rejected lines verbatim (evidence, not data).
        self.quarantine_path = self.path.with_name(
            self.path.name + ".quarantine"
        )
        self._records: dict[str, dict[str, Any]] = {}
        #: The canonical line of each record, as :meth:`flush` writes it.
        self._lines: dict[str, str] = {}
        self.skipped_lines = 0
        if fresh:
            self.path.unlink(missing_ok=True)
        elif self.path.exists():
            self.skipped_lines = read_records(
                self.path, _checkpoint_record, self.quarantine_path, self._keep
            )

    def _keep(self, _offset: int, record: dict[str, Any]) -> None:
        self._records[record["key"]] = record
        self._lines[record["key"]] = json.dumps(record, sort_keys=True)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        """Checkpointed unit keys, in completion order."""
        return iter(self._records)

    def get(self, key: str) -> dict[str, Any] | None:
        """The full record for ``key`` (``None`` if not checkpointed)."""
        return self._records.get(key)

    def payload(self, key: str) -> Any | None:
        """Just the payload for ``key`` (``None`` if not checkpointed)."""
        record = self._records.get(key)
        return None if record is None else record["payload"]

    def append(self, key: str, payload: Any, attempts: int = 1) -> None:
        """Record one completed unit and persist the file atomically."""
        record = {"key": key, "attempts": attempts, "payload": payload}
        self._lines[key] = encode_record(record, CHECKPOINT_SCHEMA)
        self._records[key] = record
        self.flush()

    def flush(self) -> None:
        """Write the current snapshot to disk (temp + fsync + rename)."""
        atomic_write_text(
            self.path, "".join(line + "\n" for line in self._lines.values())
        )
