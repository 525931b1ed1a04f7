"""Content-addressed result cache: solve identity in, bytes out.

The repo's determinism contract makes every solve memoizable: the result
is a pure function of ``(instance, method, config, seed, device
profile)``.  :class:`CacheKey` is that tuple made canonical — the
instance and the resolved configuration digested through
:mod:`repro.instances.digest`, the same hashing contract the pool's
payload-integrity checks use — and :class:`ResultCache` is a disk map
from the key to the finished result document.

Each entry is one record of the CRC record codec in
:mod:`repro.resilience.atomic`, written atomically and decoded on every
read.  An entry the codec rejects, or whose key does not match its
address (a colliding or renamed file), is moved verbatim into
``quarantine/`` next to the cache, and the lookup degrades to a miss: a
corrupt cache can cost a recompute, never a wrong answer.
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path
from typing import Any

from repro.instances.digest import instance_digest, mapping_digest
from repro.resilience.atomic import (
    atomic_write_text,
    decode_record,
    encode_record,
    move_aside,
)
from repro.service.admission import ValidatedJob

__all__ = ["CACHE_SCHEMA", "CacheKey", "ResultCache"]

#: Bump when the entry format changes; readers treat other schemas as
#: corrupt (quarantined, recomputed) rather than guessing.
CACHE_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class CacheKey:
    """The canonical identity of one solve.

    ``instance`` and ``config`` are already digests (hex SHA-256 of the
    canonical JSON forms); ``seed`` and ``device_profile`` stay readable
    because they are the components operators grep for when auditing
    what a cache holds.
    """

    instance: str
    method: str
    config: str
    seed: int
    device_profile: str

    @classmethod
    def for_job(cls, validated: ValidatedJob) -> "CacheKey":
        return cls(
            instance=instance_digest(validated.instance),
            method=validated.method,
            config=mapping_digest(validated.canonical_config),
            seed=validated.seed,
            device_profile=validated.device_profile,
        )

    def components(self) -> dict[str, Any]:
        return {
            "instance": self.instance,
            "method": self.method,
            "config": self.config,
            "seed": self.seed,
            "device_profile": self.device_profile,
        }

    @property
    def hex(self) -> str:
        """The flat address: hex SHA-256 over the canonical components."""
        return mapping_digest(self.components())


class ResultCache:
    """Disk-backed map from :class:`CacheKey` to result documents.

    Layout: ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps
    directories small at large entry counts), plus ``<root>/quarantine/``
    for rejected entries.  Thread-safe; the store path is atomic, so a
    reader never observes a half-written entry.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def path_for(self, key: CacheKey) -> Path:
        address = key.hex
        return self.root / address[:2] / f"{address}.json"

    def load(self, key: CacheKey) -> dict[str, Any] | None:
        """The stored result document, or ``None`` (miss / quarantined)."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            # Missing, or unreadable but present: nothing to preserve,
            # cannot trust.
            with self._lock:
                self.misses += 1
            return None
        record = decode_record(raw, CACHE_SCHEMA)
        if (
            record is None
            or record.get("key") != key.hex
            or record.get("components") != key.components()
            or not isinstance(record.get("payload"), dict)
        ):
            move_aside(path, self.root / "quarantine" / path.name)
            with self._lock:
                self.misses += 1
                self.quarantined += 1
            return None
        with self._lock:
            self.hits += 1
        return record["payload"]

    def store(self, key: CacheKey, payload: dict[str, Any]) -> None:
        """Persist one result document under its key, atomically."""
        record = {
            "key": key.hex,
            "components": key.components(),
            "payload": payload,
        }
        atomic_write_text(
            self.path_for(key), encode_record(record, CACHE_SCHEMA) + "\n"
        )
        with self._lock:
            self.stores += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "quarantined": self.quarantined,
            }
