"""Deterministic fault injection for the simulated device and backends.

Real fault-tolerance code is impossible to test against real faults -- a
GT 560M that times out on exactly the 40th kernel launch of a study cannot
be arranged.  A :class:`FaultPlan` arranges it: the plan is attached to a
:class:`repro.gpusim.device.Device` (or to either
:class:`~repro.core.engine.backends.ExecutionBackend`) and raises a chosen
error on the N-th launch or allocation, *counted cumulatively across the
plan's lifetime*.  Because the count survives device re-creation, a retry
of the failed work unit starts past the trigger index and succeeds -- which
is exactly the transient-fault shape the resilient runner must handle.

Plans are deterministic by construction (counters, not wall clocks) and,
when a firing ``probability`` below 1 is requested, seeded -- the same plan
replayed over the same workload fires at the same call indices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.engine.config import check_choice
from repro.gpusim.errors import (
    DeviceAllocationError,
    DeviceUnavailableError,
    InvalidLaunchError,
    LaunchTimeoutError,
)
from repro.pool.faults import split_fault_spec

__all__ = ["FAULT_KINDS", "FAULT_OPS", "FaultSpec", "FaultPlan", "parse_fault"]

#: Injectable fault kinds.  ``interrupt`` simulates the operator's Ctrl-C
#: at a deterministic point mid-study (KeyboardInterrupt is *not* a
#: failure: the runner converts it into a graceful, resumable stop).
FAULT_KINDS: dict[str, type[BaseException]] = {
    "transient": DeviceUnavailableError,
    "timeout": LaunchTimeoutError,
    "oom": DeviceAllocationError,
    "fatal": InvalidLaunchError,
    "interrupt": KeyboardInterrupt,
}

FAULT_OPS = ("launch", "malloc")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: raise ``kind`` on the ``at``-th ``op`` call.

    ``at`` is 1-based and counted cumulatively over the owning plan's
    lifetime (across devices and retries).  ``repeat=True`` makes the
    fault *permanent*: it fires on every matching call at or after ``at``,
    modeling a hard failure no retry can clear.
    """

    op: str
    at: int
    kind: str = "transient"
    repeat: bool = False
    probability: float = 1.0
    message: str = ""

    def __post_init__(self) -> None:
        check_choice("fault op", self.op, FAULT_OPS)
        check_choice("fault kind", self.kind, tuple(FAULT_KINDS))
        if self.at < 1:
            raise ValueError(f"fault index must be >= 1, got {self.at}")
        if not (0.0 < self.probability <= 1.0):
            raise ValueError(
                f"fault probability must lie in (0, 1], got {self.probability}"
            )

    def build_error(self) -> BaseException:
        """Instantiate the exception this spec injects."""
        detail = self.message or (
            f"injected {self.kind} fault on {self.op} #{self.at}"
        )
        return FAULT_KINDS[self.kind](detail)


class FaultPlan:
    """A seeded, reproducible schedule of injected faults.

    The plan keeps one cumulative counter per operation; hooks in the
    device/backends call :meth:`record` before doing the real work, so an
    injected error prevents the operation exactly as a driver error would.
    Every firing is logged in :attr:`fired` as ``(op, index, kind)`` for
    assertions on cross-backend parity.
    """

    def __init__(self, specs: tuple[FaultSpec, ...] | list[FaultSpec] = (),
                 seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._counts: dict[str, int] = {op: 0 for op in FAULT_OPS}
        self.fired: list[tuple[str, int, str]] = []

    def counts(self) -> dict[str, int]:
        """Cumulative calls recorded per operation (a copy)."""
        return dict(self._counts)

    def record(self, op: str) -> None:
        """Count one ``op`` call; raise if a spec triggers at this index."""
        check_choice("fault op", op, FAULT_OPS)
        self._counts[op] += 1
        index = self._counts[op]
        for spec in self.specs:
            if spec.op != op:
                continue
            due = index == spec.at or (spec.repeat and index >= spec.at)
            if not due:
                continue
            if spec.probability < 1.0 and (
                self._rng.random() >= spec.probability
            ):
                continue
            self.fired.append((op, index, spec.kind))
            raise spec.build_error()


def parse_fault(text: str) -> FaultSpec:
    """Parse a CLI fault spec: ``OP:AT:KIND`` with an optional ``:repeat``.

    Examples: ``launch:40:transient``, ``malloc:3:oom:repeat``,
    ``launch:1200:interrupt`` (simulated Ctrl-C mid-study).
    """
    (op, at, kind), repeat = split_fault_spec(
        text, "OP:AT:KIND", (1, "index"), "bad fault spec",
        f"e.g. launch:40:transient (ops: {FAULT_OPS}, "
        f"kinds: {tuple(FAULT_KINDS)})",
    )
    return FaultSpec(op=op, at=at, kind=kind, repeat=repeat)
