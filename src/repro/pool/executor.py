"""The pool primitive: bounded, supervised execution on warm children.

Every parallel feature in this repo (ensemble sharding, ``solve_many``,
``ResilientRunner.run_units(workers=N)``) funnels through
:class:`ProcessPool`, and every child process anywhere in the repo --
pool tasks, service jobs (:mod:`repro.pool.dispatch`), host-agent tasks
(:mod:`repro.pool.agent`) -- is started, watched, reaped and classified
by the one :class:`ChildSupervisor` defined here:

* **Bounded in-flight work** -- at most ``workers`` child processes exist
  at any moment; remaining tasks queue on the host.
* **Warm workers** -- within one :meth:`ProcessPool.imap_unordered`
  batch each of the ``workers`` slots forks one child that runs task
  after task: a fork costs ~12 ms per task per worker on a 2-core box,
  as much as a small solve.  A child is replaced only after a crash,
  timeout, integrity failure or interrupt, and every child is reaped
  when the batch ends, however it ends.  Service jobs and agent tasks
  arrive after their children exist, so each gets a fresh child.
* **Error isolation** -- a task that raises delivers its exception as a
  *value*; a task whose process dies outright (segfault, ``kill -9``)
  delivers :class:`WorkerCrashError`.  The pool itself never raises for a
  task failure.
* **Supervision** -- an optional per-task wall-clock deadline
  (``task_timeout``), armed when the task is sent to its child: a child
  that exceeds it is SIGTERM'd, escalated to SIGKILL after
  ``term_grace_s``, and surfaces as :class:`WorkerTimeoutError` --
  siblings keep running and collecting throughout.  Abnormal outcomes
  (crash, timeout, corrupt payload) are retried in-pool up to
  ``task_retries`` times; a task that fails *every* attempt is
  quarantined with a structured
  :class:`~repro.pool.errors.PoisonTaskReport` instead of being retried
  forever.
* **Result integrity** -- children ship results as an explicit pickle
  blob plus its SHA-256 digest; the parent verifies the digest before
  deserializing, so silent transport corruption surfaces as
  :class:`PayloadIntegrityError` rather than as a wrong answer.
* **Interrupt propagation** -- ``KeyboardInterrupt`` in a child is
  re-raised on the host when its result is collected, preserving the
  resilient runner's stop-scheduling/flush/skip semantics.

Each child holds the batch's task table -- inherited at fork, or
pickled once per child under ``spawn``/``forkserver`` -- so the parent
sends only ``(task index, fault directive)`` down the child's duplex
pipe.  The supervisor exposes its busy pipes and its next watchdog
deadline; each front end composes a single
:func:`multiprocessing.connection.wait` over them plus its own duties
(the pool's retry cool-downs, the service's cancel tick, the agent's
client socket), so a slow task never blocks collection of a fast one.

The default start method is the platform's (``fork`` on Linux), which
permits closure tasks.  Payloads used by the library itself are built
spawn-safe (module-level functions + picklable arguments) so the pool also
works under ``spawn``/``forkserver`` via ``context=`` -- including fault
directives, which travel as plain strings.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import pickle
import signal
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.engine.config import check_retries, check_timeout, check_workers
from repro.instances.digest import sha256_hex
from repro.pool.errors import (
    LOCAL_HOST_LABEL,
    PayloadIntegrityError,
    PoisonTaskError,
    PoisonTaskReport,
    TaskAttempt,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.pool.faults import PoolFaultPlan

__all__ = [
    "AttemptLedger",
    "ChildSupervisor",
    "ProcessPool",
    "PoolFuture",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "PayloadIntegrityError",
    "default_workers",
]

#: Attempt outcomes a supervisor may retry; every other status (``ok``,
#: ``error``, ``interrupt``) is the task's own result.
ABNORMAL_OUTCOMES = ("crash", "timeout", "integrity")


def default_workers(cap: int | None = None) -> int:
    """The pool size used when the caller does not choose one."""
    n = os.cpu_count() or 1
    if cap is not None:
        n = min(n, cap)
    return max(n, 1)


def task_labels(labels: Sequence[str] | None, count: int) -> list[str]:
    """Per-task names for logs and quarantine reports (``task<i>``)."""
    if labels is None:
        return [f"task{i}" for i in range(count)]
    names = [str(x) for x in labels]
    if len(names) != count:
        raise ValueError(f"{len(names)} labels for {count} tasks")
    return names


# One hashing contract repo-wide (repro.instances.digest): children hash
# their result blob with the same SHA-256 the net transport and the
# service result cache use.
_digest = sha256_hex


def _child_main(
    conn: Connection,
    tasks: Sequence[tuple[Callable[..., Any], tuple]],
    parent_end: Connection,
) -> None:
    """Child entry point: run tasks by index until told to stop.

    The parent sends ``(index, directive)`` and gets one tagged result
    back per message; ``None`` ends the child with exit code 0, and so
    do EOF (the parent is gone; the child closes its inherited copy of
    ``parent_end`` so that EOF can arrive) and a Ctrl-C while idle.  An
    in-task exception is the task's value and keeps the child; an
    in-task ``KeyboardInterrupt`` is reported and ends it.

    ``directive`` arms deterministic fault injection
    (:mod:`repro.pool.faults`): ``kill`` exits abruptly before running
    the task (the parent sees a closed pipe, exactly like a segfault);
    ``hang`` stalls forever before running it (only the watchdog reaps
    it); ``corrupt-payload`` runs the task and computes the true digest,
    then flips a byte of the pickled result before sending -- the
    parent's digest check must catch it.

    SIGTERM is reset to its default action first: a forked child
    inherits the parent's Python handlers (``repro serve`` installs one
    for its drain), and a swallowed SIGTERM would make every watchdog
    reap wait out the full SIGKILL grace.  SIGINT keeps its handler so a
    Ctrl-C still reaches a running task as ``KeyboardInterrupt``.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent_end.close()
    try:
        # An idle child blocks in recv() by design: the parent sends
        # work or None, or dies (EOF), and reaps the child either way.
        while (message := conn.recv()) is not None:  # repro-lint: disable=RPL008 -- idle warm child; a stop message, EOF or the parent's reap ends the wait
            index, directive = message
            if directive == "kill":
                conn.close()
                os._exit(77)
            while directive == "hang":  # pragma: no cover - signal exits
                time.sleep(3600)
            fn, args = tasks[index]
            try:
                blob = pickle.dumps(fn(*args))
            except KeyboardInterrupt:
                conn.send(("interrupt", None))
                break
            except BaseException as exc:  # noqa: BLE001 - exceptions travel as values
                try:
                    conn.send(("error", exc))
                except Exception:
                    # Unpicklable exception: degrade to its repr.
                    conn.send(("error", RuntimeError(f"unpicklable {exc!r}")))
                continue
            digest = _digest(blob)
            if directive == "corrupt-payload":
                blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
            conn.send(("ok", blob, digest))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the parent is gone, or Ctrl-C reached an idle child
    finally:
        conn.close()


def reap_child(
    process: mp.process.BaseProcess,
    connection: Connection,
    term_grace_s: float,
    busy: bool = True,
) -> None:
    """Stop the child and wait for it to exit, then close its pipe.

    A busy child (watchdog, cancel, batch abandoned mid-task) is
    SIGTERM'd at once; an idle one is sent ``None`` and gets
    ``term_grace_s`` to exit 0 on its own.  SIGTERM escalates to SIGKILL
    after the grace period.
    """
    if not busy:
        try:
            connection.send(None)
        except OSError:
            pass  # the child is already gone
        process.join(term_grace_s)
    connection.close()
    if process.is_alive():
        process.terminate()
        process.join(term_grace_s)
        if process.is_alive():
            process.kill()
    process.join()


class AttemptLedger:
    """Per-task history of abnormal attempts: retry, raw error or poison.

    The one retry/quarantine policy shared by every front end.  Within
    budget a failed attempt is retried; with the default of no retries a
    single failure surfaces its raw error (the pre-supervision
    contract); a task that fails every attempt surfaces
    :class:`~repro.pool.errors.PoisonTaskError` wrapping its full
    history.
    """

    def __init__(self, retries: int = 0) -> None:
        self.retries = retries
        self._history: dict[int, list[TaskAttempt]] = {}

    def next_attempt(self, index: int) -> int:
        """1-based number of the task's next attempt."""
        return len(self._history.get(index, ())) + 1

    def fail(
        self,
        index: int,
        label: str,
        outcome: str,
        error: Exception,
        exitcode: int | None = None,
        host: str = LOCAL_HOST_LABEL,
    ) -> Exception | None:
        """Record one abnormal attempt; ``None`` means retry the task,
        otherwise the error to surface for it."""
        attempts = self._history.setdefault(index, [])
        attempts.append(TaskAttempt(
            attempt=len(attempts) + 1,
            outcome=outcome,
            error=str(error),
            exitcode=exitcode,
            host=host,
        ))
        if len(attempts) <= self.retries:
            return None
        if self.retries == 0:
            return error
        report = PoisonTaskReport(
            index=index, label=label, attempts=tuple(attempts)
        )
        return PoisonTaskError(report)


@dataclasses.dataclass(slots=True)
class PoolFuture:
    """Handle for one in-flight task attempt (owned by a supervisor)."""

    index: int
    label: str
    #: The child running the attempt, and the parent's end of its pipe.
    process: mp.process.BaseProcess
    connection: Connection
    #: 1-based attempt number.
    attempt: int
    #: Absolute watchdog deadline (``None`` = unsupervised).
    deadline: float | None


class ChildSupervisor:
    """Start, watch, reap and classify task children; keep the ledger.

    The only code in the repo that starts :func:`_child_main`.  One
    instance holds one run's state -- the busy children keyed by their
    pipe, the idle warm ones, and the :class:`AttemptLedger` -- so front
    ends build one per batch, job or client session.  It never blocks on
    its own: callers wait on :attr:`pipes` (plus whatever else they
    serve) until :meth:`next_wakeup`, then hand the ready connections to
    :meth:`collect`.

    Given the batch's task table (``tasks``), a child that finishes a
    task with ``ok`` or ``error`` stays warm and runs the next one it is
    sent.  Without a table every :meth:`start` forks a fresh child with
    a one-entry table that ends after its one task.

    Outcomes use one vocabulary: the child's own ``ok`` (value = the
    ``(blob, digest)`` pair, still unopened), ``error`` and
    ``interrupt``, plus the abnormal ``crash`` (dead child, torn or
    undecodable message) and ``timeout`` (watchdog reap).  Local front
    ends pass each outcome through :meth:`settle`, which opens the blob
    (adding ``integrity``) and applies the ledger.  A child with an
    abnormal outcome or an interrupt is never reused.
    """

    def __init__(
        self,
        context: mp.context.BaseContext,
        task_timeout: float | None = None,
        task_retries: int = 0,
        term_grace_s: float = 0.5,
        fault_plan: PoolFaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,
        tasks: Sequence[tuple[Callable[..., Any], tuple]] | None = None,
    ) -> None:
        self.task_timeout = task_timeout
        self.term_grace_s = term_grace_s
        self.fault_plan = fault_plan
        self.ledger = AttemptLedger(task_retries)
        self._ctx = context
        self._clock = clock
        self._tasks = tasks
        self._children: dict[Connection, PoolFuture] = {}
        self._idle: list[tuple[mp.process.BaseProcess, Connection]] = []

    def __len__(self) -> int:
        return len(self._children)

    @property
    def pipes(self) -> list[Connection]:
        """The pipes of every busy child, for the caller's wait."""
        return list(self._children)

    def next_wakeup(self) -> float | None:
        """The earliest watchdog deadline (``None`` = nothing to enforce)."""
        deadlines = [
            fut.deadline for fut in self._children.values()
            if fut.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def start(
        self,
        index: int,
        label: str,
        fn: Callable[..., Any] | None = None,
        args: tuple = (),
    ) -> None:
        """Send the task's next attempt to a child, armed with its fault
        directive; the watchdog deadline starts now.

        With a task table, ``index`` names the task and an idle warm
        child runs it (one is forked if none is idle); without one,
        ``fn(*args)`` runs in a fresh child.
        """
        attempt = self.ledger.next_attempt(index)
        directive = (
            self.fault_plan.directive(index, attempt)
            if self.fault_plan is not None else None
        )
        if self._tasks is None:
            process, conn = self._send((0, directive), [(fn, args)])
            conn.send(None)  # one task, then the child ends
        else:
            process, conn = self._send((index, directive), self._tasks)
        deadline = (
            self._clock() + self.task_timeout
            if self.task_timeout is not None else None
        )
        self._children[conn] = PoolFuture(
            index, label, process, conn, attempt, deadline
        )

    def _send(
        self, message: tuple[int, str | None], table: Sequence[Any]
    ) -> tuple[mp.process.BaseProcess, Connection]:
        """Hand ``message`` to an idle child, or fork one holding ``table``."""
        while self._idle:
            process, conn = self._idle.pop()
            try:
                conn.send(message)
                return process, conn
            except OSError:  # it died while idle; fork a replacement
                reap_child(process, conn, self.term_grace_s)
        conn, child_end = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_child_main, args=(child_end, table, conn)
        )
        process.start()
        # The parent must not hold the child's end open, or a dead child
        # would never raise EOFError on recv.
        child_end.close()
        conn.send(message)
        return process, conn

    def collect(
        self, ready: Iterable[Any]
    ) -> list[tuple[PoolFuture, str, Any]]:
        """Receive every ready child, then reap every child past its deadline.

        ``ready`` is what the caller's wait returned; objects that are
        not this supervisor's pipes (a client socket) are ignored.  A
        result that raced its deadline is still collected (``poll()`` is
        checked before reaping).  A child whose task ended ``ok`` or
        ``error`` goes back to the idle list when there is a task table;
        every other child is reaped.
        """
        out = []
        for conn in ready:
            fut = self._children.pop(conn, None)
            if fut is None:
                continue
            status, value = self._receive(fut)
            if self._tasks is not None and status in ("ok", "error"):
                self._idle.append((fut.process, conn))
            else:
                reap_child(fut.process, conn, self.term_grace_s, busy=False)
            out.append((fut, status, value))
        now = self._clock()
        for conn, fut in list(self._children.items()):
            if fut.deadline is None or now < fut.deadline or conn.poll():
                continue
            del self._children[conn]
            reap_child(fut.process, conn, self.term_grace_s)
            out.append((fut, "timeout", WorkerTimeoutError(
                f"task {fut.label!r} exceeded its {self.task_timeout:g}s "
                f"deadline and was killed"
            )))
        return out

    def _receive(self, fut: PoolFuture) -> tuple[str, Any]:
        """Receive one child message; never raises.

        Any receive or decode failure -- including an exception the
        child raised that cannot be rebuilt here -- is confined to this
        task as a ``crash``: a torn or undecodable message must never
        escape and kill the caller's loop.
        """
        try:
            # Bounded by construction: only connections that wait()
            # reported ready (or poll() confirmed) reach this receive,
            # so recv() returns without blocking; hung children are
            # the watchdog's job, not this read's.
            message = fut.connection.recv()  # repro-lint: disable=RPL008 -- recv only after wait()/poll() readiness; hangs are reaped by the deadline watchdog
        except (EOFError, ConnectionResetError):
            # A dead child's pipe reads as EOF, or as a reset if it died
            # with a message unread.
            fut.process.join()
            return "crash", WorkerCrashError(
                f"worker process for task {fut.label!r} died without "
                f"reporting a result (exit code {fut.process.exitcode})"
            )
        except Exception as exc:  # noqa: BLE001 - isolate decode failures
            return "crash", WorkerCrashError(
                f"result for task {fut.label!r} could not be received: "
                f"{exc!r}"
            )
        if message[0] == "ok":
            return "ok", (message[1], message[2])
        return message[0], message[1]

    def settle(
        self, fut: PoolFuture, status: str, value: Any
    ) -> tuple[str, Any] | None:
        """Open a local result and book abnormal attempts in the ledger.

        An ``ok`` blob is checked against its digest before it is
        unpickled (``integrity`` on a mismatch, ``crash`` if it will not
        load; either way its child is reaped, not reused).  Kept out of
        :meth:`collect` so the host agent can forward the blob unopened,
        under the child's own digest, for the client to check end to
        end.

        Returns the task's final ``(status, value)`` -- an exhausted
        abnormal attempt becomes ``("error", raw error or poison)`` --
        or ``None`` when the task is due another attempt.
        """
        if status == "ok":
            blob, digest = value
            if _digest(blob) != digest:
                status, value = "integrity", PayloadIntegrityError(
                    f"result for task {fut.label!r} failed its "
                    f"content-digest check ({len(blob)} bytes); payload "
                    f"corrupted in transit"
                )
            else:
                try:
                    value = pickle.loads(blob)
                except Exception as exc:  # noqa: BLE001 - isolate decode failures
                    status, value = "crash", WorkerCrashError(
                        f"result for task {fut.label!r} could not be "
                        f"deserialized: {exc!r}"
                    )
            if status != "ok":
                self._retire(fut)
        if status not in ABNORMAL_OUTCOMES:
            return status, value
        error = self.ledger.fail(
            fut.index, fut.label, status, value, fut.process.exitcode
        )
        return None if error is None else ("error", error)

    def _retire(self, fut: PoolFuture) -> None:
        """Reap an idle child whose last result must not be trusted."""
        child = (fut.process, fut.connection)
        if child in self._idle:
            self._idle.remove(child)
            reap_child(*child, self.term_grace_s, busy=False)

    def close(self) -> None:
        """Reap every child (batch end, generator cleanup, session end,
        cancel): busy ones are killed, idle ones told to stop."""
        for conn, fut in self._children.items():
            reap_child(fut.process, conn, self.term_grace_s)
        for process, conn in self._idle:
            reap_child(process, conn, self.term_grace_s, busy=False)
        self._children.clear()
        self._idle.clear()


class ProcessPool:
    """Run tasks in child processes, at most ``workers`` at a time.

    Parameters
    ----------
    workers:
        Maximum concurrent child processes (``None`` = ``os.cpu_count()``).
    context:
        multiprocessing start-method name (``"fork"``/``"spawn"``/
        ``"forkserver"``); ``None`` uses the platform default.
    task_timeout:
        Per-task wall-clock deadline in seconds; a child exceeding it is
        killed and its attempt counted as a timeout.  ``None`` (default)
        disables the watchdog.
    task_retries:
        How many times an *abnormal* attempt (crash/timeout/corrupt
        payload -- never an ordinary in-task exception) is retried; the
        failed attempt's child is replaced.  With the default of 0 a
        single failure surfaces its raw error; with retries, a task
        failing every attempt surfaces
        :class:`~repro.pool.errors.PoisonTaskError` carrying the full
        attempt history.
    retry_delay:
        Optional ``attempt -> seconds`` cool-down before retrying
        (0-based attempt).  Delays never block sibling collection: they
        are folded into the pipe-multiplexing timeout.
    term_grace_s:
        Grace period between SIGTERM and SIGKILL when reaping a child.
    fault_plan:
        Optional :class:`~repro.pool.faults.PoolFaultPlan` arming
        deterministic transport faults per ``(task, attempt)``.
    clock:
        Injectable monotonic clock (tests substitute it).
    """

    def __init__(
        self,
        workers: int | None = None,
        context: str | None = None,
        task_timeout: float | None = None,
        task_retries: int = 0,
        retry_delay: Callable[[int], float] | None = None,
        term_grace_s: float = 0.5,
        fault_plan: PoolFaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_workers(workers)
        check_timeout(task_timeout, "task_timeout")
        check_retries(task_retries, "task_retries")
        check_timeout(term_grace_s, "term_grace_s")
        self.workers = workers if workers is not None else default_workers()
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.retry_delay = retry_delay
        self.term_grace_s = term_grace_s
        self.fault_plan = fault_plan
        self._clock = clock
        self._ctx = mp.get_context(context)
        if (
            fault_plan is not None
            and fault_plan.wants_hang()
            and task_timeout is None
        ):
            raise ValueError(
                "a 'hang' pool fault can only be reaped by the watchdog; "
                "set task_timeout"
            )

    # -- core: completion-ordered iteration ----------------------------

    def imap_unordered(
        self,
        tasks: Sequence[tuple[Callable[..., Any], tuple]],
        labels: Sequence[str] | None = None,
    ) -> Iterator[tuple[int, str, Any]]:
        """Yield ``(index, status, value)`` as tasks finish.

        ``status`` is ``"ok"`` (value = task return), ``"error"`` (value =
        the exception: the task's own, :class:`WorkerCrashError` /
        :class:`WorkerTimeoutError` / :class:`PayloadIntegrityError` for
        an abnormal single-attempt failure, or
        :class:`~repro.pool.errors.PoisonTaskError` after a quarantine),
        or ``"interrupt"`` (child saw ``KeyboardInterrupt``).  Every task
        index is yielded exactly once, retries notwithstanding.
        Generator cleanup (including an exception in the consumer)
        reaps all in-flight children.

        ``labels`` names tasks in supervision logs and quarantine reports
        (default ``task<i>``).
        """
        specs = [(fn, args) for fn, args in tasks]
        names = task_labels(labels, len(specs))
        pending: deque[int] = deque(range(len(specs)))
        cooling: list[tuple[float, int]] = []  # (ready_at, index)
        supervisor = ChildSupervisor(
            self._ctx, self.task_timeout, self.task_retries,
            self.term_grace_s, self.fault_plan, self._clock, tasks=specs,
        )
        try:
            while pending or cooling or supervisor:
                now = self._clock()
                while len(supervisor) < self.workers:
                    index = self._next_runnable(pending, cooling, now)
                    if index is None:
                        break
                    supervisor.start(index, names[index])
                # The next duty: a watchdog deadline, or a cooled-down
                # retry that has a free worker to run on.
                wakeups = [supervisor.next_wakeup()]
                if cooling and len(supervisor) < self.workers:
                    wakeups.append(min(at for at, _ in cooling))
                due = [at for at in wakeups if at is not None]
                timeout = max(0.0, min(due) - now) if due else None
                if not supervisor:
                    # Whole capacity idle; a retry is cooling down.
                    time.sleep(timeout or 0.0)
                    continue
                ready = wait(supervisor.pipes, timeout)
                for fut, status, value in supervisor.collect(ready):
                    settled = supervisor.settle(fut, status, value)
                    if settled is not None:
                        yield (fut.index, *settled)
                        continue
                    delay = (
                        self.retry_delay(fut.attempt - 1)
                        if self.retry_delay is not None else 0.0
                    )
                    cooling.append(
                        (self._clock() + max(0.0, delay), fut.index)
                    )
        finally:
            supervisor.close()

    def _next_runnable(
        self, pending: deque[int], cooling: list[tuple[float, int]],
        now: float,
    ) -> int | None:
        """The next task index to spawn: due retries first, then fresh."""
        if cooling:
            at, index = min(cooling)
            if at <= now:
                cooling.remove((at, index))
                return index
        if pending:
            return pending.popleft()
        return None

    # -- conveniences ---------------------------------------------------

    def map(
        self, fn: Callable[..., Any], argtuples: Iterable[tuple]
    ) -> list[tuple[str, Any]]:
        """Run ``fn(*args)`` for each argtuple; ``(status, value)`` in order.

        A child ``KeyboardInterrupt`` is re-raised on the host after all
        children have been reaped.
        """
        tasks = [(fn, args) for args in argtuples]
        done = {
            index: (status, value)
            for index, status, value in self.imap_unordered(tasks)
        }
        if any(status == "interrupt" for status, _ in done.values()):
            raise KeyboardInterrupt
        return [done[index] for index in range(len(tasks))]
