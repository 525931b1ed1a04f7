"""Deterministic fault injection for the pool and network transports.

The gpusim device layer proves its fault tolerance against a
:class:`repro.resilience.faults.FaultPlan`; this module does the same for
the transports, where the failures are process deaths and network faults
rather than driver errors.  A task-fault plan arms a directive for an
exact ``(task index, attempt)`` point, and the two layers differ only in
their kind table:

* :class:`PoolFaultPlan` (``--inject-pool-fault``), asked at every child
  spawn: ``kill``, ``hang``, ``corrupt-payload`` (docs/parallel.md);
* :class:`NetFaultPlan` (``--inject-net-fault``), asked each time the
  :class:`~repro.pool.hosts.HostPool` puts a task on the wire:
  ``disconnect``, ``delay``, ``partial-frame``, ``corrupt-frame``,
  ``blackhole`` (docs/distributed.md).  Injected client-side, so one
  plan drills any topology against stock agents.

By default a spec fires on the task's *first* attempt only, so the retry
succeeds — the transient-fault shape supervision must absorb.
``:repeat`` makes it fire on every attempt, which is what drives a task
into poison quarantine.  Directives are plain strings, so injection
works identically under ``fork`` and ``spawn``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

from repro.core.engine.config import check_choice

__all__ = [
    "POOL_FAULT_KINDS", "PoolFaultSpec", "PoolFaultPlan", "parse_pool_fault",
    "NET_FAULT_KINDS", "NetFaultSpec", "NetFaultPlan", "parse_net_fault",
    "split_fault_spec", "fault_plan_arg", "pool_fault_arg", "net_fault_arg",
]

POOL_FAULT_KINDS = ("kill", "hang", "corrupt-payload")
NET_FAULT_KINDS = (
    "disconnect", "delay", "partial-frame", "corrupt-frame", "blackhole"
)


def split_fault_spec(
    text: str, grammar: str, integer: tuple[int, str], error: str, hint: str
) -> tuple[list[Any], bool]:
    """Split ``text`` against ``grammar`` (e.g. ``OP:AT:KIND``) + ``[:repeat]``.

    Returns the fields, with the one ``integer = (position, name)`` field
    converted, and whether ``:repeat`` was given.  A wrong arity or suffix
    or a non-integer raises ``ValueError`` starting with ``error``.
    """
    parts: list[Any] = text.split(":")
    arity = grammar.count(":") + 1
    repeat = len(parts) == arity + 1
    if len(parts) != arity and not (repeat and parts[-1] == "repeat"):
        raise ValueError(
            f"{error} {text!r}; expected {grammar}[:repeat], {hint}"
        )
    position, name = integer
    try:
        parts[position] = int(parts[position])
    except ValueError:
        raise ValueError(
            f"{error} {text!r}: {name} {parts[position]!r} is not an integer"
        ) from None
    return parts[:arity], repeat


@dataclass(frozen=True)
class _TaskFaultSpec:
    """Inject ``kind`` into task ``task_index`` of this layer.

    ``repeat=False`` (the default) fires on attempt 1 only — the retry
    runs clean.  ``repeat=True`` fires on every attempt, modeling a task
    that deterministically fails.
    """

    #: The layer's name in messages, its injectable kinds and an
    #: example spec for the parse error.
    layer: ClassVar[str]
    kinds: ClassVar[tuple[str, ...]]
    example: ClassVar[str]

    kind: str
    task_index: int
    repeat: bool = False

    def __post_init__(self) -> None:
        check_choice(f"{self.layer} fault kind", self.kind, self.kinds)
        if self.task_index < 0:
            raise ValueError(
                f"{self.layer} fault task index must be >= 0, "
                f"got {self.task_index}"
            )

    @classmethod
    def parse(cls, text: str):
        """Parse ``KIND:TASK_INDEX[:repeat]`` into a spec of this layer."""
        (kind, task_index), repeat = split_fault_spec(
            text, "KIND:TASK_INDEX", (1, "task index"),
            f"bad {cls.layer} fault spec",
            f"e.g. {cls.example} (kinds: {cls.kinds})",
        )
        return cls(kind=kind, task_index=task_index, repeat=repeat)


class PoolFaultSpec(_TaskFaultSpec):
    layer = "pool"
    kinds = POOL_FAULT_KINDS
    example = "kill:1"


class NetFaultSpec(_TaskFaultSpec):
    layer = "net"
    kinds = NET_FAULT_KINDS
    example = "disconnect:1"


class _TaskFaultPlan:
    """A reproducible schedule of task faults.

    At most one spec fires per attempt; with several matching specs the
    first wins.  Every firing is logged in :attr:`fired` as the fault
    kind followed by the directive's arguments, for replay assertions.
    """

    def __init__(self, specs: tuple[Any, ...] | list[Any] = ()) -> None:
        self.specs = tuple(specs)
        self.fired: list[tuple[Any, ...]] = []

    def _fire(self, task_index: int, attempt: int, *where: Any) -> str | None:
        for spec in self.specs:
            if spec.task_index == task_index and (
                attempt == 1 or spec.repeat
            ):
                self.fired.append((spec.kind, *where))
                return spec.kind
        return None


class PoolFaultPlan(_TaskFaultPlan):
    """Pool-transport faults; the parent asks at every child spawn."""

    def wants_hang(self) -> bool:
        """Whether any spec injects a hang (needs a task_timeout to reap)."""
        return any(spec.kind == "hang" for spec in self.specs)

    def directive(self, task_index: int, attempt: int) -> str | None:
        """The fault kind to arm for this spawn (``None`` = run clean).

        ``attempt`` is 1-based; a firing is logged as
        ``(kind, task_index, attempt)``.
        """
        return self._fire(task_index, attempt, task_index, attempt)


class NetFaultPlan(_TaskFaultPlan):
    """Network-transport faults; the host pool asks at every task send."""

    def directive(
        self, host_label: str, task_index: int, attempt: int
    ) -> str | None:
        """The fault kind to inject at this send (``None`` = run clean).

        ``attempt`` is the task's 1-based send attempt (resends after a
        reconnect or a rejected frame count up); a firing is logged as
        ``(kind, host_label, task_index, attempt)``.
        """
        return self._fire(
            task_index, attempt, host_label, task_index, attempt
        )


def parse_pool_fault(text: str) -> PoolFaultSpec:
    """Parse ``KIND:TASK_INDEX[:repeat]``, e.g. ``kill:1`` or
    ``corrupt-payload:2:repeat``."""
    return PoolFaultSpec.parse(text)


def parse_net_fault(text: str) -> NetFaultSpec:
    """Parse ``KIND:TASK_INDEX[:repeat]``, e.g. ``disconnect:1`` or
    ``corrupt-frame:2:repeat``."""
    return NetFaultSpec.parse(text)


def fault_plan_arg(
    parse: Callable[[str], Any], plan: Callable[[list[Any]], Any]
) -> Callable[[str], Any]:
    """An argparse ``type=`` turning one CLI fault spec into a ``plan``;
    a malformed spec exits 2 with the parser's own message."""

    def convert(text: str) -> Any:
        try:
            return plan([parse(text)])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


#: argparse ``type=`` for ``--inject-pool-fault`` / ``--inject-net-fault``.
pool_fault_arg = fault_plan_arg(parse_pool_fault, PoolFaultPlan)
net_fault_arg = fault_plan_arg(parse_net_fault, NetFaultPlan)
