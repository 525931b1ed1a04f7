"""Shard transport for the ``multiprocess`` and ``distributed`` placements.

:func:`repro.core.engine.driver.run_ensemble` plans the shards, draws the
initial population and merges; this module only carries the planned shards
to where they run and back.  Each shard becomes one spawn-safe
:func:`repro.pool.worker.run_shard` task -- instance, strategy class,
config, row offset, block count and its rows of the initial population --
so the same task list runs on a local :class:`ProcessPool` or on remote
host agents through :class:`repro.pool.hosts.HostPool`.  Shard results do
not depend on where they ran, which is what keeps every placement
bit-identical (docs/parallel.md, docs/distributed.md).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.engine.driver import ShardPlan, ShardResult, plan_shards
from repro.pool.errors import AllHostsLostError
from repro.pool.executor import ProcessPool, default_workers
from repro.pool.worker import run_shard

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine.backends import (
        DistributedBackend,
        MultiprocessBackend,
    )
    from repro.core.engine.driver import EnsembleStrategy
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance

__all__ = ["ShardPlan", "plan_shards", "run_on_processes", "run_on_hosts"]


def _shard_tasks(
    instance: "CDDInstance | UCDDCPInstance",
    strategy: "EnsembleStrategy",
    plan: ShardPlan,
    init_seqs: np.ndarray,
) -> tuple[list[tuple[Callable[..., Any], tuple]], list[str]]:
    """Spawn-safe shard tasks (and their labels) for any pool transport."""
    config = strategy.config
    tasks: list[tuple[Callable[..., Any], tuple]] = []
    for lo, nblocks in zip(plan.row_offsets, plan.blocks):
        rows = init_seqs[lo : lo + nblocks * config.block_size]
        tasks.append(
            (run_shard, (instance, type(strategy), config, lo, nblocks, rows))
        )
    labels = [f"{instance.name}:shard{i}" for i in range(len(tasks))]
    return tasks, labels


def _collect_shards(
    shards: list[ShardResult | None],
    outcomes: Iterator[tuple[int, str, Any]],
    indices: Sequence[int] | None = None,
) -> None:
    """Fill ``shards`` from an ``imap_unordered`` stream.

    ``indices`` maps the stream's local task indices back to global shard
    indices (used when a fallback pool re-runs only the unfinished ones).
    """
    for index, status, value in outcomes:
        if status == "interrupt":
            raise KeyboardInterrupt
        if status == "error":
            raise value
        shards[indices[index] if indices is not None else index] = value


def run_on_processes(
    placement: "MultiprocessBackend",
    instance: "CDDInstance | UCDDCPInstance",
    strategy: "EnsembleStrategy",
    plan: ShardPlan,
    init_seqs: np.ndarray,
) -> list[ShardResult]:
    """Run the planned shards on local worker processes, one per shard."""
    tasks, labels = _shard_tasks(instance, strategy, plan, init_seqs)
    shards: list[ShardResult | None] = [None] * len(tasks)
    pool = ProcessPool(
        workers=len(tasks),
        context=placement.context,
        task_timeout=placement.task_timeout,
        task_retries=placement.task_retries,
        fault_plan=placement.pool_faults,
    )
    _collect_shards(shards, pool.imap_unordered(tasks, labels=labels))
    return shards  # type: ignore[return-value]


def run_on_hosts(
    placement: "DistributedBackend",
    instance: "CDDInstance | UCDDCPInstance",
    strategy: "EnsembleStrategy",
    plan: ShardPlan,
    init_seqs: np.ndarray,
) -> list[ShardResult]:
    """Run the planned shards on remote host agents.

    Reconnects and host failover happen inside the :class:`HostPool`.
    When every remote is lost and ``local_fallback`` is on, the unfinished
    shards are deterministically re-run on a local :class:`ProcessPool`.
    """
    tasks, labels = _shard_tasks(instance, strategy, plan, init_seqs)
    shards: list[ShardResult | None] = [None] * len(tasks)
    try:
        _collect_shards(
            shards,
            placement.host_pool().imap_unordered(tasks, labels=labels),
        )
    except AllHostsLostError as exc:
        if not placement.local_fallback:
            raise
        remaining = [i for i, s in enumerate(shards) if s is None]
        warnings.warn(
            f"{exc}; degrading to the local multiprocess pool for the "
            f"{len(remaining)} unfinished shard(s) — results are "
            "unaffected (shard re-runs are bit-identical)",
            RuntimeWarning,
            stacklevel=2,
        )
        fallback = ProcessPool(
            workers=min(len(remaining), default_workers()),
            context=placement.context,
        )
        _collect_shards(
            shards,
            fallback.imap_unordered(
                [tasks[i] for i in remaining],
                labels=[labels[i] for i in remaining],
            ),
            indices=remaining,
        )
    return shards  # type: ignore[return-value]
