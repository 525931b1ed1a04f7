"""Batched multi-instance solving: one configuration, many instances.

The benchmark-set workloads (all 280 Biskup–Feldmann instances, UCDDCP
sweeps) are embarrassingly parallel *across instances*.  :func:`solve_many`
fans one façade ``solve`` configuration out over a list of instances on
the shared :class:`~repro.pool.executor.ProcessPool`:

* bounded in-flight work (at most ``workers`` solves at a time),
* results collected **in input order** regardless of completion order,
* per-instance **error isolation** — a solve that raises yields a
  :class:`BatchError` record in its slot; the batch never crashes and the
  surviving results keep their indices,
* optional **supervision** — ``task_timeout`` reaps hung solves,
  ``task_retries`` respawns crashed/timed-out/corrupted ones, and a solve
  that fails every attempt degrades to a ``poison_task`` error record
  carrying its full :class:`~repro.pool.errors.PoisonTaskReport`,
* **end-to-end integrity** — every returned solution is re-validated by
  the independent schedule checker
  (:func:`repro.problems.validation.validate_schedule`) before it is
  accepted; a result that survived the transport digest but violates a
  structural constraint degrades to a ``validation`` error record rather
  than polluting downstream tables.

Determinism: each solve seeds its own RNG from its config exactly as a
serial loop would, so a batch run produces the same per-instance results
as ``[solver_for(i).solve(method, **kw) for i in instances]``.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.pool.errors import (
    LOCAL_HOST_LABEL,
    PayloadIntegrityError,
    PoisonTaskError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.pool.executor import ProcessPool
from repro.pool.faults import PoolFaultPlan
from repro.pool.worker import solve_one
from repro.problems.validation import ScheduleError, validate_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.results import SolveResult
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance

__all__ = [
    "BatchError",
    "BatchItem",
    "error_kind",
    "solve_many",
    "iter_solve_many",
]

Instance = "CDDInstance | UCDDCPInstance"

@dataclasses.dataclass(frozen=True)
class BatchError:
    """The error record an isolated per-instance failure degrades to.

    ``report`` carries the quarantine evidence (a
    :class:`~repro.pool.errors.PoisonTaskReport` as JSON) when
    ``error_type == "poison_task"``.  ``host`` names the machine whose
    final attempt failed — ``"local"`` for in-process pools, the agent's
    ``host:port`` label for distributed attempts — so multi-host triage
    can name the machine.
    """

    index: int
    error: str
    error_type: str
    report: dict | None = None
    host: str = LOCAL_HOST_LABEL

    @property
    def ok(self) -> bool:
        return False


@dataclasses.dataclass(frozen=True)
class BatchItem:
    """One slot of a finished batch: the result or its error record."""

    index: int
    instance: Any
    result: "SolveResult | None"
    error: BatchError | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def error_kind(value: BaseException) -> str:
    """The structured ``error_type`` string for a pool-surfaced failure.

    Shared vocabulary for every layer that renders pool failures to
    users: batch error records and the service's per-job error payloads
    name the same outcome the same way (``poison_task`` /
    ``worker_timeout`` / ``payload_integrity`` / ``worker_crash``, or
    the exception's type name for an ordinary in-task error).
    """
    if isinstance(value, PoisonTaskError):
        return "poison_task"
    if isinstance(value, WorkerTimeoutError):
        return "worker_timeout"
    if isinstance(value, PayloadIntegrityError):
        return "payload_integrity"
    if isinstance(value, WorkerCrashError):
        return "worker_crash"
    return type(value).__name__


def _error_item(index: int, instance: Any, value: BaseException) -> BatchItem:
    report = (
        value.report.to_json() if isinstance(value, PoisonTaskError) else None
    )
    host = (
        value.report.host if isinstance(value, PoisonTaskError)
        else LOCAL_HOST_LABEL
    )
    return BatchItem(
        index=index,
        instance=instance,
        result=None,
        error=BatchError(index=index, error=str(value),
                         error_type=error_kind(value), report=report,
                         host=host),
    )


def _validated_item(instance: Any, index: int, result: Any) -> BatchItem:
    try:
        # Defense in depth: the transport digest proves the bytes
        # arrived intact; the independent checker proves the *content*
        # is a feasible schedule whose stored objective recomputes.
        validate_schedule(instance, result.schedule)
    except ScheduleError as exc:
        return _error_item(index, instance, exc)
    return BatchItem(index=index, instance=instance, result=result)


def iter_solve_many(
    instances: Sequence[Any],
    method: str = "parallel_sa",
    workers: int | None = None,
    context: str | None = None,
    task_timeout: float | None = None,
    task_retries: int = 0,
    pool_faults: PoolFaultPlan | None = None,
    **solve_kwargs: Any,
) -> Iterator[BatchItem]:
    """Yield :class:`BatchItem` per instance in **completion** order.

    The streaming variant of :func:`solve_many` — use it to render
    progress or start post-processing before the stragglers finish.
    Each instance is one pool task, run by one of ``workers`` warm
    children (docs/parallel.md).
    """
    pool = ProcessPool(
        workers=workers, context=context, task_timeout=task_timeout,
        task_retries=task_retries, fault_plan=pool_faults,
    )
    tasks = [
        (solve_one, (instance, method, dict(solve_kwargs)))
        for instance in instances
    ]
    labels = [
        getattr(instance, "name", f"task{index}")
        for index, instance in enumerate(instances)
    ]
    for index, status, value in pool.imap_unordered(tasks, labels=labels):
        if status == "interrupt":
            raise KeyboardInterrupt
        if status != "ok":
            yield _error_item(index, instances[index], value)
        else:
            yield _validated_item(instances[index], index, value)


def solve_many(
    instances: Sequence[Any],
    method: str = "parallel_sa",
    workers: int | None = None,
    context: str | None = None,
    task_timeout: float | None = None,
    task_retries: int = 0,
    pool_faults: PoolFaultPlan | None = None,
    **solve_kwargs: Any,
) -> list[BatchItem]:
    """Solve every instance with one configuration; results in input order.

    ``solve_kwargs`` are forwarded to the façade ``solve`` (``config=``,
    ``backend=``, method kwargs...).  A failed instance occupies its slot
    with ``item.ok == False`` and a populated ``item.error``.
    """
    items: list[BatchItem | None] = [None] * len(instances)
    for item in iter_solve_many(
        instances, method, workers=workers, context=context,
        task_timeout=task_timeout, task_retries=task_retries,
        pool_faults=pool_faults, **solve_kwargs,
    ):
        items[item.index] = item
    out = [item for item in items if item is not None]
    assert len(out) == len(instances)
    return out

