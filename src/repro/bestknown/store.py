"""Disk-backed store of best-known objective values.

A small JSON database keyed by instance name.  Entries record the objective,
the method that produced it, and whether it is provably optimal.  The store
is monotone: an update only ever lowers a stored objective (a new "best
known" must actually be better), mirroring how best-known tables evolve in
the literature.

Durability: saves go through an atomic temp-file + rename, so a crash
mid-save never leaves a half-written database.  A corrupted store file
(truncated write from an older version, stray editor damage, a field of
the wrong type) is moved aside to ``<name>.corrupt`` (``.corrupt1``, ...
when that exists) and the store starts empty instead of raising
-- best-knowns are recomputable, the experiment run is the thing worth
protecting.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.resilience.atomic import atomic_write_text, move_aside

__all__ = ["BestKnownEntry", "BestKnownStore", "default_store_path"]


@dataclass(frozen=True)
class BestKnownEntry:
    """One best-known record."""

    objective: float
    method: str
    optimal: bool = False
    meta: dict[str, Any] | None = None


def _checked(entry: BestKnownEntry) -> BestKnownEntry:
    """``entry`` if every field has its declared type, else ValueError."""
    objective = entry.objective
    if (
        isinstance(objective, bool)
        or not isinstance(objective, (int, float))
        or not math.isfinite(objective)
        or not isinstance(entry.method, str)
        or not isinstance(entry.optimal, bool)
        or not isinstance(entry.meta, (dict, type(None)))
    ):
        raise ValueError(f"entry has a field of the wrong type: {entry}")
    return entry


def default_store_path() -> Path:
    """Resolve the store location.

    ``REPRO_DATA_DIR`` overrides; the default lives next to the repository
    (``data/bestknown.json`` under the current working tree) falling back to
    a per-user cache when the tree is read-only.
    """
    env = os.environ.get("REPRO_DATA_DIR")
    if env:
        return Path(env) / "bestknown.json"
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent / "data" / "bestknown.json"
    return Path.home() / ".cache" / "repro-duedate" / "bestknown.json"


class BestKnownStore:
    """JSON-backed map from instance name to :class:`BestKnownEntry`."""

    def __init__(self, path: Path | str | None = None) -> None:
        self.path = Path(path) if path is not None else default_store_path()
        self._entries: dict[str, BestKnownEntry] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text())
            if not isinstance(raw, dict):
                raise ValueError("store root must be a JSON object")
            self._entries = {
                name: _checked(BestKnownEntry(**rec))
                for name, rec in raw.items()
            }
        except (TypeError, ValueError) as exc:
            backup = move_aside(
                self.path, self.path.with_name(self.path.name + ".corrupt")
            )
            warnings.warn(
                f"best-known store {self.path} is corrupted ({exc}); "
                f"moved it to {backup} and starting empty",
                RuntimeWarning,
                stacklevel=2,
            )
            self._entries = {}

    def save(self) -> None:
        """Persist the store atomically (creating parent directories)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {name: asdict(e) for name, e in sorted(self._entries.items())}
        atomic_write_text(
            self.path, json.dumps(payload, indent=1, sort_keys=True)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> BestKnownEntry | None:
        """The stored entry, or ``None``."""
        return self._entries.get(name)

    def update(self, name: str, entry: BestKnownEntry) -> bool:
        """Record ``entry`` if it improves (or first defines) the best known.

        Returns whether the store changed.  An existing *optimal* entry is
        never displaced by a merely heuristic one.
        """
        current = self._entries.get(name)
        if current is None:
            self._entries[name] = entry
            return True
        if current.optimal and not entry.optimal:
            return False
        if entry.objective < current.objective - 1e-9 or (
            entry.optimal and not current.optimal
        ):
            self._entries[name] = entry
            return True
        return False
