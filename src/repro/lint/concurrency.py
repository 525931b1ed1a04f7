"""The concurrency rule set: RPL011–RPL013 over the project index.

These are the analyzer's first *project* rules — they run once over the
cross-module :class:`~repro.lint.index.ProjectIndex` instead of one
file at a time, because lock discipline is a whole-program property:
whether ``queue.py`` may take ``_seq_lock`` depends on what ``api.py``
holds when it calls in.

* **RPL011 guarded-field discipline** — a field written under a lock in
  one method must not be read or written lock-free elsewhere in the
  class.  The guard is inferred from the locked writes, or declared
  explicitly with ``# repro-lint: guarded-by=_lock`` on the field's
  assignment line.
* **RPL012 lock-order consistency** — builds the static
  lock-acquisition graph (including acquisitions reached through
  ``self._helper()`` chains and through typed attributes,
  ``self.registry.create(...)``); any cycle is a deadlock waiting for
  the right interleaving, reported with both acquisition sites.
* **RPL013 blocking-call-under-lock** — no fsync, child-process wait,
  ``Queue.get``/``put``, ``Thread.join`` or socket I/O while holding a
  lock: every other holder stalls behind the wait, which is exactly how
  heartbeat deadlines and drain grace budgets get blown.

The runtime sibling of these rules is :mod:`repro.lint.sanitizer`,
which checks the same two properties (ordering, held-while-blocking) on
the *dynamic* acquisition graph under ``REPRO_TSAN=1``.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.lint.index import ClassInfo, HeldLock, MethodInfo, ProjectIndex
from repro.lint.model import Finding
from repro.lint.rules import Rule, _register

__all__ = [
    "GuardedFieldDiscipline",
    "LockOrderConsistency",
    "NoBlockingCallUnderLock",
]

#: Where the threaded serving stack lives; the only trees with locks.
_CONCURRENT = ("repro.service", "repro.pool", "repro.resilience")

#: Types that carry their own internal synchronization: accessing one
#: lock-free is fine by construction, so RPL011 never guards them.
_SELF_SYNCHRONIZED = frozenset({
    "queue.Queue", "queue.SimpleQueue", "queue.LifoQueue",
    "queue.PriorityQueue", "threading.Event", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Barrier",
})


def _describe_held(
    method: MethodInfo, held: tuple[HeldLock, ...], path: str
) -> str:
    """Human form of the effective held set at a program point."""
    parts = [h.describe(path) for h in held]
    lexical = {h.attr for h in held}
    for attr in sorted(method.entry_held - lexical):
        parts.append(HeldLock(attr, 0).describe(path))
    return ", ".join(parts)


@_register
class GuardedFieldDiscipline(Rule):
    """RPL011 — fields written under a lock stay under that lock.

    A ``self.evicted += 1`` under ``self._lock`` in one method and a
    bare ``self.evicted`` read in another is a data race: the read can
    observe torn/stale state, and on free-threaded builds it is
    undefined behavior the test suite will never reliably reproduce.
    The guard is inferred (every lock held at every locked write) or
    declared with ``# repro-lint: guarded-by=_lock`` on the assignment
    line; ``__init__`` is exempt, since construction happens-before
    publication.
    """

    code = "RPL011"
    name = "guarded-field-discipline"
    severity = "error"
    summary = "lock-free access to a lock-guarded field"
    scope = _CONCURRENT
    project = True

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for cls in index.classes:
            if not cls.lock_attrs:
                continue
            yield from self._check_class(cls)

    def _check_class(self, cls: ClassInfo) -> Iterator[Finding]:
        accesses: dict[str, list[tuple[MethodInfo, object]]] = {}
        for method in cls.iter_methods():
            for access in method.accesses:
                accesses.setdefault(access.attr, []).append(
                    (method, access)
                )
        for field in sorted(set(accesses) | set(cls.guarded_by)):
            if field in cls.lock_attrs or field in cls.methods:
                continue
            if cls.attr_types.get(field) in _SELF_SYNCHRONIZED:
                continue
            yield from self._check_field(
                cls, field, accesses.get(field, [])
            )

    def _check_field(
        self,
        cls: ClassInfo,
        field: str,
        uses: list[tuple[MethodInfo, object]],
    ) -> Iterator[Finding]:
        declared = cls.guarded_by.get(field)
        if declared is not None and declared not in cls.lock_attrs:
            yield self.finding_at(
                cls.path,
                cls.guarded_by_lines.get(field, cls.line),
                1,
                f"`guarded-by={declared}` on `self.{field}` names no "
                f"lock of `{cls.name}` (known: "
                f"{sorted(cls.lock_attrs) or 'none'})",
            )
            return
        outside = [
            (m, a) for m, a in uses if m.name != "__init__"
        ]
        if declared is not None:
            guard = frozenset({declared})
            origin = (
                f"declared `guarded-by={declared}` at "
                f"{cls.path}:{cls.guarded_by_lines.get(field, cls.line)}"
            )
        else:
            locked_writes = [
                (m, a) for m, a in outside
                if a.kind == "write" and m.effective_held(a.held)
            ]
            if not locked_writes:
                return
            guard = frozenset.intersection(
                *(m.effective_held(a.held) for m, a in locked_writes)
            )
            if not guard:
                return  # writes disagree on the lock; nothing to infer
            first_m, first_a = min(
                locked_writes, key=lambda ma: (ma[1].line, ma[1].col)
            )
            origin = (
                f"written under it in `{first_m.name}` at "
                f"{cls.path}:{first_a.line}"
            )
        guard_names = " / ".join(f"`self.{g}`" for g in sorted(guard))
        for method, access in outside:
            if guard & method.effective_held(access.held):
                continue
            yield self.finding_at(
                cls.path, access.line, access.col,
                f"{access.kind} of `self.{field}` without holding "
                f"{guard_names} ({origin}); this lock-free access races "
                "with the guarded writers — take the lock or annotate "
                "the field's true discipline with "
                "`# repro-lint: guarded-by=<lock>`",
            )


# -- RPL012: the static lock graph --------------------------------------

#: One lock in the project-wide graph: (class qualname, lock attr).
_LockNode = "tuple[str, str]"


@dataclasses.dataclass(frozen=True)
class _Edge:
    """Held ``src`` while acquiring ``dst`` — with where that happened."""

    path: str
    line: int
    col: int
    hold_desc: str
    acquire_desc: str


def _short(node: "tuple[str, str]") -> str:
    qual, attr = node
    return f"{qual.rsplit('.', 1)[-1]}.{attr}"


class _LockGraph:
    """The static acquisition graph plus first-seen edge sites."""

    def __init__(self) -> None:
        self.edges: dict[tuple[tuple[str, str], tuple[str, str]], _Edge] = {}

    def add(
        self, src: "tuple[str, str]", dst: "tuple[str, str]", edge: _Edge
    ) -> None:
        if src != dst:  # reentrant RLock holds are not an ordering
            self.edges.setdefault((src, dst), edge)

    def cycles(self) -> list[list[tuple[str, str]]]:
        """Every elementary cycle, canonicalized and deduplicated.

        The graphs here are a handful of nodes, so a DFS from every
        node with an explicit stack is plenty; each cycle is rotated to
        start at its smallest node so the same loop found from two
        entry points reports once.
        """
        graph: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for (src, dst) in self.edges:
            graph.setdefault(src, []).append(dst)
        for dsts in graph.values():
            dsts.sort()
        seen: set[tuple[tuple[str, str], ...]] = set()
        cycles: list[list[tuple[str, str]]] = []

        def visit(
            node: tuple[str, str], stack: list[tuple[str, str]]
        ) -> None:
            if node in stack:
                loop = stack[stack.index(node):]
                pivot = loop.index(min(loop))
                canonical = tuple(loop[pivot:] + loop[:pivot])
                if canonical not in seen:
                    seen.add(canonical)
                    cycles.append(list(canonical))
                return
            stack.append(node)
            for dst in graph.get(node, []):
                visit(dst, stack)
            stack.pop()

        for start in sorted(graph):
            visit(start, [])
        return cycles


@_register
class LockOrderConsistency(Rule):
    """RPL012 — one global acquisition order, no cycles.

    If thread 1 takes ``A`` then ``B`` while thread 2 takes ``B`` then
    ``A``, the deadlock needs nothing but the right interleaving — and
    chaos drills eventually find it.  The graph includes acquisitions
    reached through internal helper chains and through calls on typed
    attributes, so ``api.submit`` holding ``_idem_lock`` while
    ``self.registry.create`` takes the registry lock contributes the
    edge ``_idem_lock -> registry._lock``.
    """

    code = "RPL012"
    name = "lock-order-consistency"
    severity = "error"
    summary = "cyclic lock-acquisition order"
    scope = _CONCURRENT
    project = True

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        summaries = self._summaries(index)
        graph = self._build_graph(index, summaries)
        for cycle in graph.cycles():
            yield self._report(graph, cycle)

    # -- method summaries: every lock a call may acquire ----------------

    def _summaries(
        self, index: ProjectIndex
    ) -> dict[tuple[str, str], dict[tuple[str, str], tuple[str, int]]]:
        summaries: dict[
            tuple[str, str], dict[tuple[str, str], tuple[str, int]]
        ] = {}
        for cls in index.classes:
            for method in cls.methods.values():
                direct: dict[tuple[str, str], tuple[str, int]] = {}
                for acq in method.acquisitions:
                    direct.setdefault(
                        (cls.qualname, acq.attr), (cls.path, acq.line)
                    )
                summaries[(cls.qualname, method.name)] = direct
        changed = True
        while changed:
            changed = False
            for cls in index.classes:
                for method in cls.methods.values():
                    mine = summaries[(cls.qualname, method.name)]
                    for call in method.calls:
                        target = self._call_target(index, cls, call)
                        if target is None:
                            continue
                        for node, site in summaries.get(
                            target, {}
                        ).items():
                            if node not in mine:
                                mine[node] = site
                                changed = True
        return summaries

    @staticmethod
    def _call_target(
        index: ProjectIndex, cls: ClassInfo, call
    ) -> tuple[str, str] | None:
        if call.self_method is not None:
            if call.self_method in cls.methods:
                return (cls.qualname, call.self_method)
            return None
        if call.attr is not None:
            other = index.resolve_attr_class(cls, call.attr)
            if other is not None and call.method in other.methods:
                return (other.qualname, call.method)
        return None

    # -- edges ----------------------------------------------------------

    def _build_graph(
        self,
        index: ProjectIndex,
        summaries: dict[
            tuple[str, str], dict[tuple[str, str], tuple[str, int]]
        ],
    ) -> _LockGraph:
        graph = _LockGraph()
        for cls in index.classes:
            for method in cls.methods.values():
                entry_holds = tuple(
                    HeldLock(attr, 0) for attr in sorted(method.entry_held)
                )
                for acq in method.acquisitions:
                    holds = self._merge_holds(entry_holds, acq.held)
                    dst = (cls.qualname, acq.attr)
                    for hold in holds:
                        graph.add(
                            (cls.qualname, hold.attr), dst,
                            _Edge(
                                path=cls.path, line=acq.line, col=acq.col,
                                hold_desc=hold.describe(cls.path),
                                acquire_desc=(
                                    f"`{_short(dst)}` acquired at "
                                    f"{cls.path}:{acq.line}"
                                ),
                            ),
                        )
                for call in method.calls:
                    holds = self._merge_holds(entry_holds, call.held)
                    if not holds:
                        continue
                    target = self._call_target(index, cls, call)
                    if target is None:
                        continue
                    for node, site in sorted(
                        summaries.get(target, {}).items()
                    ):
                        for hold in holds:
                            graph.add(
                                (cls.qualname, hold.attr), node,
                                _Edge(
                                    path=cls.path, line=call.line,
                                    col=call.col,
                                    hold_desc=hold.describe(cls.path),
                                    acquire_desc=(
                                        f"`{_short(node)}` acquired at "
                                        f"{site[0]}:{site[1]} via the "
                                        f"call at {cls.path}:{call.line}"
                                    ),
                                ),
                            )
        return graph

    @staticmethod
    def _merge_holds(
        entry_holds: tuple[HeldLock, ...], held: tuple[HeldLock, ...]
    ) -> tuple[HeldLock, ...]:
        lexical = {h.attr for h in held}
        return held + tuple(
            h for h in entry_holds if h.attr not in lexical
        )

    # -- reporting ------------------------------------------------------

    def _report(
        self, graph: _LockGraph, cycle: list[tuple[str, str]]
    ) -> Finding:
        edges = [
            graph.edges[(cycle[i], cycle[(i + 1) % len(cycle)])]
            for i in range(len(cycle))
        ]
        anchor = min(edges, key=lambda e: (e.path, e.line, e.col))
        order = " -> ".join(
            _short(node) for node in (*cycle, cycle[0])
        )
        legs = "; ".join(
            f"{edge.acquire_desc} while holding {edge.hold_desc}"
            for edge in edges
        )
        return self.finding_at(
            anchor.path, anchor.line, anchor.col,
            f"lock-order cycle {order}: {legs} — a deadlock needs only "
            "the right interleaving; pick one global order and release "
            "before acquiring against it",
        )


# -- RPL013: blocking calls under a lock --------------------------------

#: Import-resolved calls that block on I/O, children, or the clock.
_BLOCKING_CALLS = {
    "os.fsync": "an fsync",
    "os.fdatasync": "an fsync",
    "time.sleep": "a sleep",
    "socket.create_connection": "a network connect",
    "subprocess.run": "a child-process wait",
    "subprocess.call": "a child-process wait",
    "subprocess.check_call": "a child-process wait",
    "subprocess.check_output": "a child-process wait",
    "subprocess.Popen": "a child-process spawn",
    "multiprocessing.connection.wait": "a pipe wait",
    "select.select": "an I/O wait",
    "repro.resilience.atomic.durable_append_text": "an fsync'd append",
    "repro.resilience.atomic.atomic_write_text": "an fsync'd write",
}

#: Blocking methods keyed by the receiver's statically-known type.
_BLOCKING_METHODS = {
    "queue.Queue": frozenset({"get", "put", "join"}),
    "queue.LifoQueue": frozenset({"get", "put", "join"}),
    "queue.PriorityQueue": frozenset({"get", "put", "join"}),
    "queue.SimpleQueue": frozenset({"get", "put"}),
    "threading.Thread": frozenset({"join"}),
    "threading.Event": frozenset({"wait"}),
    "socket.socket": frozenset({
        "recv", "recv_into", "send", "sendall", "accept", "connect",
    }),
}


@_register
class NoBlockingCallUnderLock(Rule):
    """RPL013 — no blocking I/O, process waits or sleeps under a lock.

    A lock held across an fsync or a ``Queue.get`` turns every other
    holder into a disk/network waiter: admission latency inherits the
    slowest flush, heartbeat deadline math stops meaning anything, and
    a wedged child can wedge the registry.  Blocking work happens
    outside the critical section; the lock protects state, not time.
    """

    code = "RPL013"
    name = "no-blocking-call-under-lock"
    severity = "error"
    summary = "blocking call while holding a lock"
    scope = _CONCURRENT
    project = True

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for cls in index.classes:
            if not cls.lock_attrs:
                continue
            for method in cls.iter_methods():
                yield from self._check_method(cls, method)

    def _check_method(
        self, cls: ClassInfo, method: MethodInfo
    ) -> Iterator[Finding]:
        for call in method.calls:
            if not method.effective_held(call.held):
                continue
            blocked = self._blocking_label(cls, call)
            if blocked is None:
                continue
            what, label = blocked
            held = _describe_held(method, call.held, cls.path)
            yield self.finding_at(
                cls.path, call.line, call.col,
                f"`{what}` is {label} made while holding {held}; every "
                "other holder stalls behind it — move the blocking call "
                "outside the critical section",
            )

    @staticmethod
    def _blocking_label(
        cls: ClassInfo, call
    ) -> tuple[str, str] | None:
        if call.resolved is not None:
            label = _BLOCKING_CALLS.get(call.resolved)
            if label is not None:
                return call.resolved, label
            return None
        receiver_type = None
        display = None
        if call.attr is not None:
            receiver_type = cls.attr_types.get(call.attr)
            display = f"self.{call.attr}.{call.method}"
        elif call.local_type is not None:
            receiver_type = call.local_type
            display = f"{call.local_type}.{call.method}"
        if receiver_type is None:
            return None
        methods = _BLOCKING_METHODS.get(receiver_type)
        if methods is not None and call.method in methods:
            return display, f"a blocking `{receiver_type}.{call.method}`"
        return None
