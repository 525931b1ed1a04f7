"""Correctness oracle of the layered benchmark.

Every returned sequence is re-scored with the independent scalar
evaluator of :mod:`repro.seqopt.pure_python` and must reproduce the
reported objective.  Solves whose key is in ``expected.json`` (the seed-0
solve-large cases and service requests) must also reproduce the recorded
objective and sequence digest exactly, and the modeled gpusim timings must
equal the recorded ones bit for bit.

Regenerate ``expected.json`` after a deliberate change of results with::

    PYTHONPATH=src python benchmarks/layered/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.problems.cdd import CDDInstance
from repro.seqopt.pure_python import cdd_objective_py, ucddcp_objective_py

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def sequence_digest(sequence: Any) -> str:
    """SHA-256 of the sequence as little-endian int64."""
    arr = np.asarray(sequence, dtype="<i8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def rescore(instance: Any, sequence: list[int]) -> float:
    """Objective of ``sequence`` by the scalar pure-Python evaluator."""
    p = instance.processing.tolist()
    a = instance.alpha.tolist()
    b = instance.beta.tolist()
    d = float(instance.due_date)
    if isinstance(instance, CDDInstance):
        return cdd_objective_py(p, a, b, d, sequence)
    return ucddcp_objective_py(
        p, instance.min_processing.tolist(), a, b,
        instance.gamma.tolist(), d, sequence,
    )


class Oracle:
    """Checks results; :meth:`check` returns a problem string or ``None``."""

    def __init__(self, path: Path = EXPECTED_PATH) -> None:
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() \
            else {}
        self.solves: dict[str, dict[str, Any]] = doc.get("solves", {})
        #: ``"full"`` / ``"smoke"`` -> modeled gpusim metric values.
        self.gpusim: dict[str, dict[str, float]] = doc.get("gpusim", {})
        #: Results checked against a pinned expected value.
        self.pinned = 0

    def check(self, key: str, instance: Any, sequence: list[int],
              objective: float) -> str | None:
        if sorted(sequence) != list(range(instance.n)):
            return f"{key}: sequence is not a permutation of 0..{instance.n - 1}"
        scored = rescore(instance, sequence)
        if not math.isclose(scored, objective, rel_tol=1e-12, abs_tol=1e-9):
            return f"{key}: objective {objective!r} but re-scored {scored!r}"
        want = self.solves.get(key)
        if want is None:
            return None
        self.pinned += 1
        if objective != want["objective"]:
            return (f"{key}: objective {objective!r}, expected "
                    f"{want['objective']!r}")
        if sequence_digest(sequence) != want["sequence_sha256"]:
            return f"{key}: sequence digest differs from expected"
        return None

    def check_gpusim(self, values: dict[str, float], smoke: bool) -> list[str]:
        """Modeled timings must equal the recorded ones exactly."""
        expected = self.gpusim.get("smoke" if smoke else "full", {})
        return [
            f"{name}: {values.get(name)!r} != expected {want!r}"
            for name, want in sorted(expected.items())
            if values.get(name) != want
        ]


def regenerate(path: Path = EXPECTED_PATH) -> dict[str, Any]:
    """Solve every seed-0 case in-process and write ``expected.json``."""
    import layers
    import workloads
    from repro import solver_for

    solves: dict[str, dict[str, Any]] = {}
    for solve in workloads.expected_solves(seed=0):
        result = solver_for(solve.instance).solve(
            solve.method, backend="vectorized", **solve.kwargs
        )
        solves[solve.key] = {
            "objective": float(result.objective),
            "sequence_sha256": sequence_digest(result.best_sequence),
        }
    doc = {"solves": solves, "gpusim": {
        "full": layers.gpusim_modeled(smoke=False),
        "smoke": layers.gpusim_modeled(smoke=True),
    }}
    path.write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return doc


if __name__ == "__main__":
    written = regenerate()
    print(f"wrote {len(written['solves'])} solves to {EXPECTED_PATH}",
          file=sys.stderr)
