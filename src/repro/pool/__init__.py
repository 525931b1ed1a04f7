"""Process-pool execution subsystem.

One pool primitive, two transports, three consumers:

* :mod:`repro.pool.sharding` -- the ``multiprocess`` and ``distributed``
  execution backends: shard one chain ensemble across worker processes
  (or remote host agents), bit-identical to the ``vectorized`` backend
  (see docs/parallel.md and docs/distributed.md for the determinism
  contract).
* :mod:`repro.pool.batch` -- ``solve_many``: fan one solver configuration
  out over many problem instances with bounded in-flight work, ordered
  results and per-instance error isolation.
* ``ResilientRunner.run_units(..., workers=N)`` -- parallel work-unit
  execution for every study and the best-known recompute
  (:mod:`repro.resilience.runner`).

The pool supervises its children (:mod:`repro.pool.executor`): warm
workers reused for a whole batch, per-task wall-clock deadlines, in-pool
retries of abnormal deaths, poison-task quarantine with structured
reports (:mod:`repro.pool.errors`), content digests on every result
crossing the pipe, and deterministic transport fault plans for chaos
testing (:mod:`repro.pool.faults`).

The distributed layer adds a socket transport with the same guarantees
(:mod:`repro.pool.net`), a host-agent runtime (:mod:`repro.pool.agent`),
and a multi-host client with heartbeats, reconnect backoff and
deterministic failover (:mod:`repro.pool.hosts`).
"""

from repro.pool.batch import BatchError, BatchItem, error_kind, solve_many
from repro.pool.dispatch import SupervisedDispatch
from repro.pool.errors import (
    AllHostsLostError,
    FrameError,
    HostHeartbeatError,
    HostProtocolError,
    HostUnreachableError,
    LOCAL_HOST_LABEL,
    PayloadIntegrityError,
    PoisonTaskError,
    PoisonTaskReport,
    TaskAttempt,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.pool.executor import PoolFuture, ProcessPool
from repro.pool.faults import (
    NET_FAULT_KINDS,
    NetFaultPlan,
    NetFaultSpec,
    POOL_FAULT_KINDS,
    PoolFaultPlan,
    PoolFaultSpec,
    parse_net_fault,
    parse_pool_fault,
)
from repro.pool.hosts import HostPool
from repro.pool.net import HostSpec, parse_host_spec, parse_host_specs
from repro.pool.sharding import (
    ShardPlan,
    plan_shards,
    run_distributed_ensemble,
    run_sharded_ensemble,
)

__all__ = [
    "BatchError",
    "BatchItem",
    "error_kind",
    "solve_many",
    "PoolFuture",
    "ProcessPool",
    "SupervisedDispatch",
    "HostPool",
    "HostSpec",
    "parse_host_spec",
    "parse_host_specs",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "PayloadIntegrityError",
    "FrameError",
    "HostUnreachableError",
    "HostHeartbeatError",
    "HostProtocolError",
    "AllHostsLostError",
    "LOCAL_HOST_LABEL",
    "TaskAttempt",
    "PoisonTaskReport",
    "PoisonTaskError",
    "POOL_FAULT_KINDS",
    "PoolFaultPlan",
    "PoolFaultSpec",
    "parse_pool_fault",
    "NET_FAULT_KINDS",
    "NetFaultPlan",
    "NetFaultSpec",
    "parse_net_fault",
    "ShardPlan",
    "plan_shards",
    "run_sharded_ensemble",
    "run_distributed_ensemble",
]
