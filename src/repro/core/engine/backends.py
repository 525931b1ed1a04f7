"""Pluggable execution backends for the ensemble metaheuristics.

The parallel drivers express one generation as a pipeline of kernel
launches (perturbation -> fitness -> acceptance -> reduction).  A backend
decides *where* those kernels run:

* :class:`GpusimBackend` -- the cycle-modeled simulated CUDA device of
  :mod:`repro.gpusim`: every launch and transfer is charged to the modeled
  GT 560M clock, reproducing the paper's runtime and speedup figures
  bit-for-bit.
* :class:`VectorizedBackend` -- the same kernel bodies executed directly on
  host NumPy arrays with the same counter-based RNG, skipping the cost
  model, occupancy calculation, stream bookkeeping and profiler entirely.
  Numerically identical results (same best sequence and objective for the
  same seed), no modeled timings -- the fast path for deviation
  experiments, baselines and tests.

Both backends expose CUDA-shaped primitives (``alloc``/``upload``/
``download``/``launch``/``synchronize``) plus adapter-driven staging of the
instance data, so the shared driver in
:mod:`repro.core.engine.driver` is backend-agnostic.

Every ``backend=`` value is also a *placement* -- where the ensemble's
shards run.  A kernel backend runs the whole ensemble as one shard in the
calling process.  :class:`MultiprocessBackend` and
:class:`DistributedBackend` are settings records, not kernel backends:
they run the shards on local worker processes or remote host agents, each
shard on a :class:`VectorizedBackend`.  All three answer the driver's
placement protocol: ``workers`` (the shard-plan width), ``run_shards`` and
``result_params``.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import InitVar
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Union

import numpy as np

from repro.core.engine.config import (
    check_retries,
    check_timeout,
    check_workers,
)
from repro.gpusim.device import Device, DeviceSpec
from repro.gpusim.kernel import Kernel, ThreadContext
from repro.gpusim.memory import ConstantMemory
from repro.gpusim.rng import DeviceRNG, OffsetRNG
from repro.kernels.data import DeviceProblemData

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine.adapters import ProblemAdapter
    from repro.core.engine.driver import (
        EnsembleStrategy,
        ShardPlan,
        ShardResult,
    )
    from repro.gpusim.launch import LaunchConfig
    from repro.gpusim.timing import TimingModel
    from repro.pool.hosts import HostPool
    from repro.resilience.faults import FaultPlan

__all__ = [
    "ExecutionBackend",
    "GpusimBackend",
    "VectorizedBackend",
    "MultiprocessBackend",
    "DistributedBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "create_backend",
]


class ExecutionBackend(ABC):
    """Where the ensemble kernels execute.

    A backend is opened once per solve (staging the instance data per the
    adapter's recipe), then driven through CUDA-shaped primitives.  All
    buffers expose a ``.array`` attribute for device-side initialization
    idioms (e.g. seeding the elitist best with ``inf``), mirroring how the
    kernels themselves touch storage.
    """

    name: ClassVar[str]
    #: Whether :meth:`timing_fields` reports modeled device/kernels/memcpy
    #: durations (only the cycle-modeled backend does).
    models_device_time: ClassVar[bool]
    #: Shard-plan width as a placement: a kernel backend runs the whole
    #: ensemble as one in-process shard.
    workers: ClassVar[int] = 1

    def __init__(self, fault_plan: "FaultPlan | None" = None) -> None:
        #: Optional deterministic fault injection (see
        #: :mod:`repro.resilience.faults`).  The plan's call counters are
        #: cumulative over the plan, not the backend, so reopening the
        #: backend (a retry) does not re-arm an already-fired fault.
        self.fault_plan = fault_plan

    @abstractmethod
    def open(
        self, adapter: "ProblemAdapter", seed: int, device_spec: DeviceSpec,
        timing: "TimingModel | None" = None,
    ) -> None:
        """Initialize RNG/storage and stage the adapter's instance data.

        ``timing`` is the profile's timing model; only the
        cycle-modeled backend uses it (``None`` = calibrated default).
        """

    @abstractmethod
    def alloc(
        self, shape: tuple[int, ...] | int, dtype: Any, label: str = ""
    ) -> Any:
        """Allocate a zero-initialized buffer with a ``.array`` attribute."""

    @abstractmethod
    def upload(self, buf: Any, host: np.ndarray) -> None:
        """Copy ``host`` into ``buf`` (charged on modeled backends)."""

    @abstractmethod
    def download(self, buf: Any) -> np.ndarray:
        """Copy ``buf`` back to a host-owned array (charged when modeled)."""

    @abstractmethod
    def launch(self, kern: Kernel, config: "LaunchConfig", *args: Any) -> None:
        """Execute one kernel over the launch geometry."""

    @abstractmethod
    def synchronize(self) -> None:
        """Barrier: wait for all queued launches (advances modeled clock)."""

    @abstractmethod
    def fitness_buffers(self) -> tuple[Any, ...]:
        """Staged instance-data buffers in fitness-kernel argument order."""

    def timing_fields(self) -> dict[str, float]:
        """Modeled-timing kwargs for ``SolveResult`` (empty if unmodeled)."""
        return {}

    def run_shards(
        self,
        instance: Any,
        strategy: "EnsembleStrategy",
        adapter: "ProblemAdapter",
        plan: "ShardPlan",
        init_seqs: np.ndarray,
    ) -> list["ShardResult"]:
        """Run the plan's one shard in-process on this backend, with the
        strategy the driver already prepared."""
        from repro.core.engine.driver import run_chains

        return [run_chains(strategy, self, adapter, init_seqs)]

    def result_params(self, nshards: int) -> dict[str, Any]:
        """Placement entries of ``SolveResult.params``."""
        return {"backend": self.name}


class GpusimBackend(ExecutionBackend):
    """Run on the simulated CUDA device with full cost modeling."""

    name = "gpusim"
    models_device_time = True

    device: Device
    data: DeviceProblemData

    def open(
        self, adapter: "ProblemAdapter", seed: int, device_spec: DeviceSpec,
        timing: "TimingModel | None" = None,
    ) -> None:
        self.device = Device(
            spec=device_spec, seed=seed, fault_plan=self.fault_plan,
            timing=timing,
        )
        self.data = DeviceProblemData(self.device, adapter.instance)

    def alloc(self, shape, dtype, label: str = ""):
        return self.device.malloc(shape, dtype, label)

    def upload(self, buf, host: np.ndarray) -> None:
        self.device.memcpy_htod(buf, host)

    def download(self, buf) -> np.ndarray:
        return self.device.memcpy_dtoh(buf)

    def launch(self, kern: Kernel, config: "LaunchConfig", *args: Any) -> None:
        self.device.launch(kern, config, *args)

    def synchronize(self) -> None:
        self.device.synchronize()

    def fitness_buffers(self):
        return self.data.fitness_buffers()

    def timing_fields(self) -> dict[str, float]:
        profiler = self.device.profiler
        return {
            "modeled_device_time_s": self.device.host_time,
            "modeled_kernel_time_s": profiler.kernel_time(),
            "modeled_memcpy_time_s": profiler.memcpy_time(),
        }


class _HostBuffer:
    """Host-side stand-in for a device buffer (just the backing array)."""

    __slots__ = ("array", "label")

    def __init__(self, array: np.ndarray, label: str = "") -> None:
        self.array = array
        self.label = label


class _HostDeviceShim:
    """Minimal device surface a kernel body may touch on the host path.

    Kernel bodies only reach their device through ``ctx.syncthreads()``
    (recorded, semantically a no-op under vectorized execution) and
    ``ctx.lane_ids`` (needs ``spec.warp_size``); everything costing-related
    lives behind ``Device.launch`` and is deliberately absent here.
    """

    __slots__ = ("spec", "syncthreads_count")

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.syncthreads_count = 0

    def _note_syncthreads(self) -> None:
        self.syncthreads_count += 1


class VectorizedBackend(ExecutionBackend):
    """Execute the kernel bodies directly on host arrays (no device model).

    The kernels already compute the whole ensemble with vectorized NumPy;
    this backend calls those same bodies with the same counter-based
    :class:`DeviceRNG`, so the search trajectory is bit-for-bit identical
    to :class:`GpusimBackend` -- it only skips the occupancy/roofline cost
    model, stream, transfer charging and profiler, which is where the
    wall-time overhead of the simulated device lives.
    """

    name = "vectorized"
    models_device_time = False

    def __init__(
        self,
        fault_plan: "FaultPlan | None" = None,
        thread_offset: int = 0,
    ) -> None:
        super().__init__(fault_plan=fault_plan)
        #: Global thread id of this backend's local thread 0.  Non-zero only
        #: when the backend runs one shard of a larger ensemble (a pooled
        #: placement's ``run_shard``); the RNG is then offset so local
        #: threads draw exactly the streams of their global counterparts.
        self.thread_offset = thread_offset

    def open(
        self, adapter: "ProblemAdapter", seed: int, device_spec: DeviceSpec,
        timing: "TimingModel | None" = None,
    ) -> None:
        self.rng: DeviceRNG | OffsetRNG = DeviceRNG(seed)
        if self.thread_offset:
            self.rng = OffsetRNG(self.rng, self.thread_offset)
        self.constant = ConstantMemory()
        self._shim = _HostDeviceShim(device_spec)
        self._staged: dict[str, _HostBuffer] = {}
        self._fitness_names = adapter.fitness_param_names
        for name, values in adapter.staging_arrays():
            self._staged[name] = _HostBuffer(
                np.array(values, dtype=np.float64), name
            )
        for name, value in adapter.constants():
            self.constant.upload(name, value)

    def alloc(self, shape, dtype, label: str = "") -> _HostBuffer:
        if self.fault_plan is not None:
            self.fault_plan.record("malloc")
        return _HostBuffer(np.zeros(shape, dtype=dtype), label)

    def upload(self, buf: _HostBuffer, host: np.ndarray) -> None:
        buf.array[...] = host

    def download(self, buf: _HostBuffer) -> np.ndarray:
        return buf.array.copy()

    def launch(self, kern: Kernel, config: "LaunchConfig", *args: Any) -> None:
        # Kernel launches are 1:1 with the gpusim backend (the driver issues
        # the identical pipeline), so launch-indexed fault plans fire at the
        # same point on both backends -- asserted in the parity tests.
        if self.fault_plan is not None:
            self.fault_plan.record("launch")
        ctx = ThreadContext(
            config=config, constant=self.constant,
            rng=self.rng, device=self._shim,  # type: ignore[arg-type]
        )
        kern.fn(ctx, *args)

    def synchronize(self) -> None:
        pass

    def fitness_buffers(self) -> tuple[_HostBuffer, ...]:
        return tuple(self._staged[name] for name in self._fitness_names)


def _refuse_fault_plan(name: str, fault_plan: "FaultPlan | None") -> None:
    """Device fault plans count launches on one in-process backend; a
    placement running shards in other processes would count on copies."""
    if fault_plan is not None:
        raise ValueError(
            f"device fault plans (--inject-fault) apply to the in-process "
            f"backends only; backend={name!r} runs its shards in other "
            "processes, so inject transport faults with --inject-pool-fault"
        )


@dataclasses.dataclass(frozen=True)
class MultiprocessBackend:
    """Shard placement: run the ensemble's shards on local worker processes.

    A settings record, not a kernel backend: :func:`run_ensemble` plans
    contiguous block-range shards for :attr:`workers`, and each shard runs
    the shared generation loop on a :class:`VectorizedBackend` whose RNG
    is offset by the shard's first global row
    (:func:`repro.pool.worker.run_shard`), so the merged result is
    bit-identical to the unsharded run.
    """

    name: ClassVar[str] = "multiprocess"

    fault_plan: InitVar["FaultPlan | None"] = None
    #: Worker-process count; ``None`` picks ``min(os.cpu_count(),
    #: grid_size)`` at shard-planning time.
    workers: int | None = None
    #: multiprocessing start method (``None`` = platform default).
    context: str | None = None
    #: Per-shard wall-clock deadline: a shard exceeding it is killed and
    #: (given ``task_retries``) deterministically re-run.
    task_timeout: float | None = None
    #: In-pool retries of abnormally-died shards (crash/timeout/corrupt
    #: payload) before the solve fails.
    task_retries: int = 0
    #: Optional :class:`repro.pool.faults.PoolFaultPlan` injecting
    #: deterministic transport faults into the shard workers.
    pool_faults: Any = None

    def __post_init__(self, fault_plan: "FaultPlan | None") -> None:
        _refuse_fault_plan(self.name, fault_plan)
        check_workers(self.workers)
        check_timeout(self.task_timeout, "task_timeout")
        check_retries(self.task_retries, "task_retries")

    def run_shards(
        self,
        instance: Any,
        strategy: "EnsembleStrategy",
        adapter: "ProblemAdapter",
        plan: "ShardPlan",
        init_seqs: np.ndarray,
    ) -> list["ShardResult"]:
        from repro.pool.sharding import run_on_processes

        return run_on_processes(self, instance, strategy, plan, init_seqs)

    def result_params(self, nshards: int) -> dict[str, Any]:
        return {"backend": self.name, "workers": nshards}


@dataclasses.dataclass(frozen=True)
class DistributedBackend:
    """Shard placement: run the ensemble's shards on remote host agents.

    The shard plan depends only on the topology's *total* worker count,
    so the merged result is bit-identical to ``backend="multiprocess"``
    with the same number of local workers, including runs where a host
    dies mid-flight and its shards fail over to the survivors (re-runs use
    the same ``OffsetRNG`` offsets).  Every field but ``local_fallback``
    and ``context`` is a :class:`repro.pool.hosts.HostPool` keyword.

    ``task_timeout`` is deliberately absent: task supervision is the
    *agent's* job (``repro agent --task-timeout``); the client only
    bounds network stalls via heartbeats.
    """

    name: ClassVar[str] = "distributed"

    fault_plan: InitVar["FaultPlan | None"] = None
    #: ``HOST[:PORT]:WORKERS,...`` or a sequence of ``HostSpec``; stored
    #: parsed, as a tuple of ``HostSpec``.
    hosts: Any = None
    task_retries: int = 0
    heartbeat_interval_s: float = 2.0
    heartbeat_timeout_s: float = 10.0
    connect_timeout_s: float = 5.0
    io_timeout_s: float = 30.0
    reconnect_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Degrade to the local multiprocess pool when every remote host is
    #: lost (the bottom rung of the ladder; docs/distributed.md).
    local_fallback: bool = True
    #: Optional :class:`repro.pool.faults.NetFaultPlan` injecting
    #: deterministic network faults at the client's send path.
    net_faults: Any = None
    #: multiprocessing start method of the local-fallback pool.
    context: str | None = None

    def __post_init__(self, fault_plan: "FaultPlan | None") -> None:
        from repro.pool.net import HostSpec, parse_host_specs

        _refuse_fault_plan(self.name, fault_plan)
        hosts = self.hosts
        if not hosts:
            raise ValueError(
                "backend='distributed' requires a host topology: "
                "hosts='HOST[:PORT]:WORKERS,...' (e.g. 'host1:4,host2:8')"
            )
        if isinstance(hosts, str):
            hosts = parse_host_specs(hosts)
        for spec in hosts:
            if not isinstance(spec, HostSpec):
                raise ValueError(
                    f"hosts entries must be HostSpec, got {spec!r}"
                )
        object.__setattr__(self, "hosts", tuple(hosts))
        self.host_pool()  # runs HostPool's knob checks now, not mid-solve

    @property
    def workers(self) -> int:
        """Total task credit across the topology (fixes the shard plan)."""
        return sum(spec.workers for spec in self.hosts)

    def host_pool(self) -> "HostPool":
        """A fresh :class:`repro.pool.hosts.HostPool` over this topology."""
        from repro.pool.hosts import HostPool

        knobs = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name not in ("local_fallback", "context")
        }
        return HostPool(**knobs)

    def run_shards(
        self,
        instance: Any,
        strategy: "EnsembleStrategy",
        adapter: "ProblemAdapter",
        plan: "ShardPlan",
        init_seqs: np.ndarray,
    ) -> list["ShardResult"]:
        from repro.pool.sharding import run_on_hosts

        return run_on_hosts(self, instance, strategy, plan, init_seqs)

    def result_params(self, nshards: int) -> dict[str, Any]:
        from repro.pool.net import format_host_specs

        return {
            "backend": self.name,
            "workers": nshards,
            "hosts": format_host_specs(self.hosts),
        }


#: What ``backend=`` resolves to: a kernel backend (the whole ensemble
#: runs in-process on it) or a shard-placement settings record.
Placement = Union[ExecutionBackend, MultiprocessBackend, DistributedBackend]

#: Registered backends, keyed by the public ``backend=`` name.
BACKENDS: dict[str, Callable[..., Placement]] = {
    GpusimBackend.name: GpusimBackend,
    VectorizedBackend.name: VectorizedBackend,
    MultiprocessBackend.name: MultiprocessBackend,
    DistributedBackend.name: DistributedBackend,
}

DEFAULT_BACKEND = GpusimBackend.name


def create_backend(
    backend: str | Placement, fault_plan: "FaultPlan | None" = None
) -> Placement:
    """Resolve a backend name (or pass through a ready instance).

    ``fault_plan`` attaches deterministic fault injection to a
    newly-created kernel backend (the shard placements refuse one); a
    passed-through instance keeps whatever plan it already carries
    (``fault_plan`` must then be ``None``).
    """
    if not isinstance(backend, str):
        if fault_plan is not None:
            raise ValueError(
                "cannot attach a fault plan to an existing backend instance"
            )
        return backend
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {tuple(BACKENDS)}"
        )
    return BACKENDS[backend](fault_plan=fault_plan)
