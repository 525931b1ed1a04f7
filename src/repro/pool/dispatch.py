"""Job-level dispatch: one supervised child per job, cancellable.

The scheduling service runs exactly one job at a time per queue worker,
with the same supervision guarantees as a batch slot (deadline watchdog,
SIGTERM→SIGKILL reaping, digest-checked payloads, abnormal-attempt
retries, poison-task quarantine) plus one thing the batch pool does not
offer: **cooperative cancellation**, so a service shutting down can reap
an in-flight solve instead of waiting minutes for it.

:class:`SupervisedDispatch` adds only that cancel tick.  Starting,
watching, reaping and classifying the child, and the retry ledger, are
the shared :class:`~repro.pool.executor.ChildSupervisor`'s, so a job
failure surfaces to service clients exactly like a batch slot failure
surfaces to batch callers.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.core.engine.config import check_retries, check_timeout
from repro.pool.executor import ChildSupervisor
from repro.pool.faults import PoolFaultPlan

__all__ = ["SupervisedDispatch"]

#: How often the supervision loop wakes to check for cancellation.  Small
#: enough that service shutdown feels immediate, large enough that an
#: idle wait costs nothing measurable next to a solve.
DISPATCH_TICK_S = 0.05


class SupervisedDispatch:
    """Run single jobs in supervised child processes, cancellably.

    One instance per queue-worker thread: :meth:`run` executes one job
    at a time; :meth:`cancel` (callable from any thread) makes the
    current and all future :meth:`run` calls return ``("cancelled",
    None)`` promptly, reaping the in-flight child.  Construction mirrors
    the pool's supervision knobs (``context``, ``term_grace_s``); the
    per-job knobs (deadline, retries, fault directives) travel with each
    :meth:`run` call because the service maps *request* deadlines onto
    them.
    """

    def __init__(
        self, context: str | None = None, term_grace_s: float = 0.5
    ) -> None:
        check_timeout(term_grace_s, "term_grace_s")
        self.term_grace_s = term_grace_s
        self._ctx = mp.get_context(context)
        self._cancel = threading.Event()

    def cancel(self) -> None:
        """Stop the in-flight job (reaping its child) and refuse new ones."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def run(
        self,
        fn: Callable[..., Any],
        args: tuple,
        label: str = "job",
        task_timeout: float | None = None,
        task_retries: int = 0,
        fault_plan: PoolFaultPlan | None = None,
        task_index: int = 0,
    ) -> tuple[str, Any]:
        """Run ``fn(*args)`` in a fresh supervised child; ``(status, value)``.

        ``status`` follows the pool contract — ``"ok"`` (value = task
        return), ``"error"`` (value = the exception: the task's own, a
        :class:`~repro.pool.errors.WorkerCrashError` /
        :class:`~repro.pool.errors.WorkerTimeoutError` /
        :class:`~repro.pool.errors.PayloadIntegrityError` for an
        abnormal single-attempt failure, or
        :class:`~repro.pool.errors.PoisonTaskError` after every retry
        failed), ``"interrupt"`` (child saw ``KeyboardInterrupt``) — plus
        ``"cancelled"`` (value ``None``) when :meth:`cancel` fired.

        ``task_timeout`` is the job's wall-clock deadline (the service
        maps per-request deadlines here); ``task_retries`` respawns
        abnormal attempts exactly like the batch pool; ``fault_plan`` /
        ``task_index`` arm deterministic fault directives for drills,
        with ``task_index`` playing the pool's task-index role (the
        service uses the job's dispatch sequence number).

        Blocking is bounded by construction: each wait lasts at most one
        tick (or the remaining deadline, if sooner), so cancellation and
        the watchdog are both serviced within a tick.
        """
        check_timeout(task_timeout, "task_timeout")
        check_retries(task_retries, "task_retries")
        supervisor = ChildSupervisor(
            self._ctx, task_timeout, task_retries, self.term_grace_s,
            fault_plan,
        )
        try:
            while not self._cancel.is_set():
                if not supervisor:
                    supervisor.start(task_index, label, fn, args)
                timeout = DISPATCH_TICK_S
                wakeup = supervisor.next_wakeup()
                if wakeup is not None:
                    timeout = min(timeout, max(0.0, wakeup - time.monotonic()))
                ready = wait(supervisor.pipes, timeout)
                for fut, status, value in supervisor.collect(ready):
                    settled = supervisor.settle(fut, status, value)
                    if settled is not None:
                        return settled
            return "cancelled", None
        finally:
            supervisor.close()
