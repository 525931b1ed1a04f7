"""The resilient work-unit runner: classify, retry, checkpoint, degrade.

An experiment study decomposes into :class:`WorkUnit` objects -- one
``(instance, method, replicate)`` cell each -- and hands them to a
:class:`ResilientRunner`, which guarantees four things:

1. **Classification**: failures are sorted against the
   :mod:`repro.gpusim.errors` hierarchy into *transient* (device
   momentarily unusable, watchdog timeout -- worth retrying) and *fatal*
   (configuration/programming errors, OOM on an oversized instance --
   retrying cannot help).
2. **Bounded retries**: transients are retried with deterministic
   exponential backoff under a per-unit wall-clock deadline.
3. **Durable progress**: every completed unit is appended to a crash-safe
   :class:`~repro.resilience.checkpoint.CheckpointStore`; a resumed run
   replays those payloads bit-identically instead of recomputing.
4. **Graceful degradation**: a permanently failing unit is recorded and
   the run continues; ``KeyboardInterrupt`` stops scheduling, marks the
   rest skipped, and lets the caller render the partial result.

The runner is deliberately synchronous and in-process: deadlines are
checked *between* attempts (a Python work unit cannot be preempted), which
is the honest contract for CPU-bound simulation cells.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.engine.config import (
    RetryPolicyMixin,
    check_timeout,
    check_workers,
)
from repro.gpusim.errors import (
    DeviceUnavailableError,
    LaunchTimeoutError,
)
from repro.gpusim.errors import classify_error as _classify_registered

# Importing the pool errors registers the transient transport types
# (WorkerCrashError, WorkerTimeoutError) with the shared taxonomy.
from repro.pool.errors import PoisonTaskError, PoisonTaskReport
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FaultPlan

__all__ = [
    "TRANSIENT_ERRORS",
    "classify_error",
    "RetryPolicy",
    "WorkUnit",
    "UnitOutcome",
    "RunReport",
    "ResilientRunner",
]

#: The *device-side* transient types (kept for backward compatibility).
#: The full taxonomy lives in :mod:`repro.gpusim.errors`: every failure
#: domain registers its transient types there, and :func:`classify_error`
#: consults the registry -- which also covers the pool transport errors.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    DeviceUnavailableError,
    LaunchTimeoutError,
)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` or ``"fatal"`` per the shared error taxonomy.

    Transients: the device-side momentary errors above plus the pool
    transport errors (a crashed or hung worker is worth one more try).
    A :class:`~repro.pool.errors.PoisonTaskError` is deliberately fatal:
    it *is* the exhausted retry budget.
    """
    return _classify_registered(exc)


@dataclass(frozen=True)
class RetryPolicy(RetryPolicyMixin):
    """Retry/backoff/deadline knobs (validated via the shared mixins)."""

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    unit_timeout_s: float | None = None

    def __post_init__(self) -> None:
        self._check_retry_policy()

    def backoff_s(self, attempt: int) -> float:
        """Deterministic delay before retry number ``attempt`` (0-based)."""
        return min(
            self.backoff_base_s * self.backoff_factor**attempt,
            self.backoff_max_s,
        )


@dataclass(frozen=True)
class WorkUnit:
    """One retryable, checkpointable cell of a study.

    ``run`` returns a JSON-serializable payload (that is what gets
    checkpointed and replayed on resume); ``key`` must be unique and
    stable across runs -- it is the resume identity of the cell.
    """

    key: str
    run: Callable[[], Any]


@dataclass
class UnitOutcome:
    """What happened to one work unit."""

    key: str
    status: str  # "ok" | "failed" | "skipped"
    payload: Any = None
    attempts: int = 0
    from_checkpoint: bool = False
    error: str | None = None
    error_kind: str | None = None  # "transient" | "fatal" | "interrupted"

    @property
    def ok(self) -> bool:
        """Whether the unit produced a payload."""
        return self.status == "ok"


@dataclass
class RunReport:
    """Aggregate outcome of one ``run_units`` call."""

    outcomes: list[UnitOutcome] = field(default_factory=list)
    interrupted: bool = False

    @property
    def completed(self) -> list[UnitOutcome]:
        """Units that produced a payload (fresh or from checkpoint)."""
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> list[UnitOutcome]:
        """Units that exhausted retries or failed fatally."""
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def skipped(self) -> list[UnitOutcome]:
        """Units never attempted (scheduling stopped by an interrupt)."""
        return [o for o in self.outcomes if o.status == "skipped"]

    def footnote(self) -> str:
        """Human-readable failure/interrupt footnote for partial reports."""
        lines = []
        for o in self.failed:
            lines.append(
                f"  — {o.key}: {o.error} "
                f"({o.error_kind}, {o.attempts} attempt"
                f"{'s' if o.attempts != 1 else ''})"
            )
        if self.interrupted:
            lines.append(
                f"  — interrupted: {len(self.skipped)} unit(s) not run "
                f"(rerun with --resume to continue)"
            )
        if not lines:
            return ""
        return "Failed cells (marked —):\n" + "\n".join(lines)


class ResilientRunner:
    """Executes work units with retries, checkpoints and degradation.

    Parameters
    ----------
    policy:
        Retry/backoff/deadline knobs.
    checkpoint_dir:
        Directory for per-study JSONL checkpoints (``None`` disables
        durable progress).
    resume:
        Load existing checkpoints and skip completed units; without it an
        existing checkpoint file for the same study id is discarded.
    fault_plan:
        Optional :class:`FaultPlan` threaded into every backend/device the
        studies create through this runner (test/CI fault injection).
        In-process backends only: combined with ``backend="multiprocess"``
        or ``"distributed"`` it is refused with a ``ValueError``.
    backend:
        Execution backend name the studies should solve on; ``None`` (the
        default) lets each study pick its own preference (see
        :meth:`solver_backend`).
    workers:
        Default worker-process count for :meth:`run_units`; ``None`` or 1
        keeps the serial in-process loop.
    task_timeout_s:
        Per-task wall-clock deadline for the *parallel* mode's worker
        processes: a hung unit is killed (SIGTERM, then SIGKILL) and
        retried under the policy's budget, without stalling siblings.
        Serial mode keeps the honest between-attempts
        ``policy.unit_timeout_s`` contract instead.
    pool_faults:
        Optional :class:`repro.pool.faults.PoolFaultPlan` injecting
        deterministic transport faults into the parallel mode's workers
        (test/CI chaos drills).
    sleep / clock:
        Injectable timing primitives (tests replace them to run instantly).
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        checkpoint_dir: Path | str | None = None,
        resume: bool = False,
        fault_plan: FaultPlan | None = None,
        backend: str | None = None,
        workers: int | None = None,
        task_timeout_s: float | None = None,
        pool_faults: "Any | None" = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        self.fault_plan = fault_plan
        self.backend = backend
        if fault_plan is not None and backend is not None:
            from repro.core.engine.backends import create_backend

            # Refuse now, before any unit runs, a backend that cannot
            # carry the plan (the shard placements count faults per
            # process, so a transient fault would never clear).
            create_backend(backend, fault_plan=fault_plan)
        check_workers(workers)
        check_timeout(task_timeout_s, "task_timeout_s")
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.pool_faults = pool_faults
        self._sleep = sleep
        self._clock = clock
        self.progress = progress
        self.reports: list[RunReport] = []
        self._stores: dict[str, CheckpointStore] = {}

    # ------------------------------------------------------------------
    # Wiring helpers for the studies
    # ------------------------------------------------------------------
    def checkpoint_for(self, study_id: str) -> CheckpointStore | None:
        """The (cached) checkpoint store for ``study_id``, if enabled."""
        if self.checkpoint_dir is None:
            return None
        if study_id not in self._stores:
            self._stores[study_id] = CheckpointStore(
                self.checkpoint_dir / f"{study_id}.jsonl",
                fresh=not self.resume,
            )
        return self._stores[study_id]

    def solver_backend(self, name: str | None = None, *,
                       prefer: str | None = None):
        """What the studies should pass as ``backend=`` to the solvers.

        Resolution order: an explicit ``name`` (a study that *needs* a
        specific backend, e.g. the speedup table needs modeled timings),
        then the runner's configured ``backend`` (the user's ``--backend``),
        then the study's ``prefer`` (e.g. ``"vectorized"`` for quality
        studies where modeled timings are not the measurement), then the
        registry default.

        Without a fault plan this is just the backend *name* (each solve
        creates its own backend -- byte-identical to the pre-resilience
        behavior).  With a plan, a shared backend instance carries the
        plan's cumulative fault counters across units and retries.
        """
        from repro.core.engine.backends import DEFAULT_BACKEND, create_backend

        resolved = name or self.backend or prefer or DEFAULT_BACKEND
        if self.fault_plan is None:
            return resolved
        return create_backend(resolved, fault_plan=self.fault_plan)

    # ------------------------------------------------------------------
    # Aggregate state across run_units calls (the CLI reads these)
    # ------------------------------------------------------------------
    @property
    def interrupted(self) -> bool:
        """Whether any run so far was stopped by an interrupt."""
        return any(r.interrupted for r in self.reports)

    @property
    def failed_units(self) -> list[UnitOutcome]:
        """All failed outcomes across every run this runner executed."""
        return [o for r in self.reports for o in r.failed]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_units(
        self,
        units: Sequence[WorkUnit],
        checkpoint: CheckpointStore | None = None,
        workers: int | None = None,
    ) -> RunReport:
        """Run ``units``; never raises except KeyboardInterrupt *outside*
        a unit (inside one it degrades to a graceful stop).

        ``workers`` (default: the runner's configured count) > 1 executes
        units concurrently in worker processes — same outcomes, same
        checkpoint/resume and retry semantics.  Each unit's whole retry
        loop runs in one child, and every unit starts from the fault
        plan's counters as the parent holds them, whichever child runs
        it, so fault injection stays deterministic *per unit* under
        concurrency (docs/parallel.md).  Outcomes are always reported in
        unit-definition order.
        """
        check_workers(workers)
        effective = workers if workers is not None else self.workers
        if effective is not None and effective > 1 and len(units) > 1:
            return self._run_units_parallel(units, checkpoint, effective)
        report = RunReport()
        for unit in units:
            if report.interrupted:
                report.outcomes.append(UnitOutcome(
                    key=unit.key, status="skipped", error_kind="interrupted",
                ))
                continue
            cached = checkpoint.get(unit.key) if checkpoint else None
            if cached is not None:
                report.outcomes.append(UnitOutcome(
                    key=unit.key, status="ok", payload=cached["payload"],
                    attempts=int(cached.get("attempts", 1)),
                    from_checkpoint=True,
                ))
                self._note(f"{unit.key}: restored from checkpoint")
                continue
            try:
                outcome = self._attempt(unit)
            except KeyboardInterrupt:
                report.interrupted = True
                report.outcomes.append(UnitOutcome(
                    key=unit.key, status="skipped", error_kind="interrupted",
                ))
                self._note(f"{unit.key}: interrupted")
                continue
            if outcome.ok and checkpoint is not None:
                checkpoint.append(unit.key, outcome.payload, outcome.attempts)
            report.outcomes.append(outcome)
        self.reports.append(report)
        return report

    def _run_units_parallel(
        self,
        units: Sequence[WorkUnit],
        checkpoint: CheckpointStore | None,
        workers: int,
    ) -> RunReport:
        """Concurrent ``run_units``: checkpointed units replay first, the
        rest run on a bounded process pool (one unit = one task running
        the full :meth:`_attempt` retry loop in a warm child).

        Requires a fork-capable platform: unit closures and the runner
        itself reach the children by process inheritance, not pickling.
        An interrupt reported by any unit stops scheduling, terminates
        in-flight units and marks everything not yet completed skipped —
        completed outcomes received before the interrupt are already
        checkpointed, exactly like the serial path's flush-and-skip.
        """
        from repro.pool.executor import ProcessPool

        report = RunReport()
        outcomes: dict[int, UnitOutcome] = {}
        pending: list[int] = []
        for i, unit in enumerate(units):
            cached = checkpoint.get(unit.key) if checkpoint else None
            if cached is not None:
                outcomes[i] = UnitOutcome(
                    key=unit.key, status="ok", payload=cached["payload"],
                    attempts=int(cached.get("attempts", 1)),
                    from_checkpoint=True,
                )
                self._note(f"{unit.key}: restored from checkpoint")
            else:
                pending.append(i)

        pool = ProcessPool(
            workers=workers,
            context="fork",
            task_timeout=self.task_timeout_s,
            task_retries=self.policy.max_retries,
            retry_delay=self.policy.backoff_s,
            fault_plan=self.pool_faults,
        )
        tasks = [(_attempt_in_worker, (self, units[i])) for i in pending]
        labels = [units[i].key for i in pending]
        results = pool.imap_unordered(tasks, labels=labels)
        try:
            for task_index, status, value in results:
                i = pending[task_index]
                unit = units[i]
                if status == "interrupt":
                    report.interrupted = True
                    outcomes[i] = UnitOutcome(
                        key=unit.key, status="skipped",
                        error_kind="interrupted",
                    )
                    self._note(f"{unit.key}: interrupted")
                    break
                if status == "error":
                    # The unit's process died abnormally (the pool already
                    # retried it under the policy's budget) or its outcome
                    # could not be returned; degrade the cell, keep going.
                    if isinstance(value, PoisonTaskError):
                        self._quarantine(value.report)
                        attempts = len(value.report.attempts)
                    else:
                        attempts = 1
                    kind = classify_error(value)
                    self._note(f"{unit.key}: failed ({kind}: {value})")
                    outcomes[i] = UnitOutcome(
                        key=unit.key, status="failed", attempts=attempts,
                        error=f"{type(value).__name__}: {value}",
                        error_kind=kind,
                    )
                    continue
                outcome: UnitOutcome = value
                if outcome.ok and checkpoint is not None:
                    checkpoint.append(
                        unit.key, outcome.payload, outcome.attempts
                    )
                outcomes[i] = outcome
        finally:
            results.close()  # terminates any in-flight children

        for i, unit in enumerate(units):
            if i not in outcomes:
                outcomes[i] = UnitOutcome(
                    key=unit.key, status="skipped", error_kind="interrupted",
                )
        report.outcomes = [outcomes[i] for i in range(len(units))]
        self.reports.append(report)
        return report

    def _attempt(self, unit: WorkUnit) -> UnitOutcome:
        """Retry loop for one unit (transient-only, deadline-bounded)."""
        policy = self.policy
        deadline = (
            self._clock() + policy.unit_timeout_s
            if policy.unit_timeout_s is not None else None
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                payload = unit.run()
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                kind = classify_error(exc)
                out_of_retries = attempt > policy.max_retries
                out_of_time = (
                    deadline is not None and self._clock() >= deadline
                )
                if kind == "fatal" or out_of_retries or out_of_time:
                    reason = kind
                    if kind == "transient" and out_of_time:
                        reason = "transient (deadline exceeded)"
                    self._note(f"{unit.key}: failed ({reason}: {exc})")
                    return UnitOutcome(
                        key=unit.key, status="failed", attempts=attempt,
                        error=f"{type(exc).__name__}: {exc}", error_kind=kind,
                    )
                delay = policy.backoff_s(attempt - 1)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - self._clock()))
                self._note(
                    f"{unit.key}: transient failure ({exc}); retrying in "
                    f"{delay:.3g}s (attempt {attempt}/{policy.max_retries + 1})"
                )
                self._sleep(delay)
            else:
                self._note(f"{unit.key}: done")
                return UnitOutcome(
                    key=unit.key, status="ok", payload=payload,
                    attempts=attempt,
                )

    def _quarantine(self, report: PoisonTaskReport) -> Path | None:
        """Persist a poison-task report under ``checkpoint_dir/quarantine/``.

        The report is the operator's evidence (task label, every attempt's
        outcome and exit code/signal); CI uploads the directory as an
        artifact.  Without a checkpoint directory the report still reaches
        the caller through the failed outcome's error text.
        """
        if self.checkpoint_dir is None:
            return None
        import json

        from repro.resilience.atomic import atomic_write_text

        safe = "".join(
            ch if ch.isalnum() or ch in "-._" else "_" for ch in report.label
        )
        path = self.checkpoint_dir / "quarantine" / f"{safe}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path, json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        )
        self._note(f"{report.label}: quarantined (report: {path})")
        return path

    def _note(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


def _attempt_in_worker(runner: ResilientRunner, unit: WorkUnit) -> UnitOutcome:
    """Child-process body of the parallel ``run_units`` mode.

    Runs the unit's *entire* retry loop in the child, against the fault
    plan as the child inherited it: a warm child runs several units, so
    the plan's counters are put back after each one.  Retry counts and
    fault-plan counters thus accumulate per unit -- never shared across
    units, whichever child runs them.
    """
    plan = runner.fault_plan
    pristine = copy.deepcopy(vars(plan)) if plan is not None else None
    try:
        return runner._attempt(unit)
    finally:
        if plan is not None:
            vars(plan).update(pristine)
