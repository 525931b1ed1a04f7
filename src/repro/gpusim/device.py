"""Device specifications and the :class:`Device` runtime object.

The device charges time through an injected :class:`~repro.gpusim.timing.
TimingModel` (launch overhead, the waves x max(compute, memory)
roofline, PCIe transfers, serialized atomics); the analytic math lives in
:mod:`repro.gpusim.timing`, the *hardware numbers* in a
:class:`DeviceSpec`, and named generations in the
:mod:`repro.gpusim.profiles` registry.  ``waves = ceil(num_blocks /
(num_sms * blocks_per_sm))`` comes from the occupancy calculation
(Section VIII of the paper reasons exactly in these terms: "loading
several threads within a block results in serial processing of the
blocks through the SM").  Host<->device copies are charged PCIe latency
plus bytes/bandwidth, and run synchronously like ``cudaMemcpy``.

Presets: the paper's **GeForce GT 560M** (a Fermi-class mobile part -- the
paper's text calls it a "Kepler device", but the GT 560M is GF116 silicon;
we model the Fermi limits), a generic desktop Fermi, and a Tesla K20 for
contrast in the ablation benches.  Newer generations (Pascal, Ampere) live
only in the profile registry -- prefer ``get_profile(name).spec`` over
importing these module constants directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.gpusim.errors import CudaError, InvalidHandleError
from repro.gpusim.kernel import Kernel, ThreadContext
from repro.gpusim.launch import LaunchConfig, occupancy
from repro.gpusim.memory import (
    ConstantMemory,
    DeviceBuffer,
    GlobalMemory,
)
from repro.gpusim.profiler import Profiler
from repro.gpusim.rng import DeviceRNG
from repro.gpusim.stream import Stream
from repro.gpusim.timing import TimingModel, waves

__all__ = [
    "DeviceSpec",
    "Device",
    "GEFORCE_GT_560M",
    "GENERIC_FERMI",
    "TESLA_K20",
]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated GPU."""

    name: str
    compute_capability: tuple[int, int]
    num_sms: int
    cores_per_sm: int
    warp_size: int
    max_threads_per_block: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    registers_per_sm: int
    shared_mem_per_sm: int
    shared_mem_per_block: int
    constant_mem_bytes: int
    global_mem_bytes: int
    core_clock_hz: float
    mem_bandwidth_bytes_per_s: float
    pcie_bandwidth_bytes_per_s: float
    pcie_latency_s: float
    kernel_launch_overhead_s: float
    atomic_op_s: float
    instructions_per_cycle: float = 1.0
    # Warps an SM needs resident to hide pipeline/memory latency; fewer
    # resident warps scale the issue rate down proportionally.
    latency_hiding_warps: int = 6
    # Fixed cost of scheduling one thread block onto an SM.
    block_dispatch_overhead_s: float = 0.3e-6
    max_block_dim: tuple[int, int, int] = (1024, 1024, 64)
    max_grid_dim: tuple[int, int, int] = (65535, 65535, 65535)

    # Field groups for construction-time validation (names must stay in
    # sync with the dataclass fields above).
    _POSITIVE_INTS = (
        "num_sms", "cores_per_sm", "warp_size", "max_threads_per_block",
        "max_threads_per_sm", "max_blocks_per_sm", "registers_per_sm",
        "shared_mem_per_sm", "shared_mem_per_block", "constant_mem_bytes",
        "global_mem_bytes", "latency_hiding_warps",
    )
    _POSITIVE_FLOATS = (
        "core_clock_hz", "mem_bandwidth_bytes_per_s",
        "pcie_bandwidth_bytes_per_s", "instructions_per_cycle",
    )
    _NON_NEGATIVE_FLOATS = (
        "pcie_latency_s", "kernel_launch_overhead_s", "atomic_op_s",
        "block_dispatch_overhead_s",
    )

    def __post_init__(self) -> None:
        self._validate()

    def _fail(self, field: str, requirement: str, value: Any) -> None:
        raise ValueError(
            f"device spec {self.name!r}: field {field!r} {requirement} "
            f"(got {value!r})"
        )

    def _validate(self) -> None:
        """Reject physically meaningless specs at construction time.

        Mirrors the loader-side style of
        :func:`repro.instances.validate.validate_job_fields`: every
        violation names the spec and the offending field, so a typo in a
        new profile fails at registration instead of surfacing as a
        nonsense modeled runtime three layers downstream.
        """
        if not self.name:
            raise ValueError("device spec must have a non-empty name")
        for field in self._POSITIVE_INTS:
            v = getattr(self, field)
            if not isinstance(v, int) or v < 1:
                self._fail(field, "must be a positive integer", v)
        for field in self._POSITIVE_FLOATS:
            v = getattr(self, field)
            if not math.isfinite(v) or v <= 0:
                self._fail(field, "must be a positive finite number", v)
        for field in self._NON_NEGATIVE_FLOATS:
            v = getattr(self, field)
            if not math.isfinite(v) or v < 0:
                self._fail(field, "must be a non-negative finite number", v)
        if self.warp_size & (self.warp_size - 1):
            self._fail("warp_size", "must be a power of two", self.warp_size)
        if self.shared_mem_per_block > self.shared_mem_per_sm:
            self._fail(
                "shared_mem_per_block",
                f"must not exceed shared_mem_per_sm "
                f"({self.shared_mem_per_sm})",
                self.shared_mem_per_block,
            )
        if self.max_threads_per_block > self.max_threads_per_sm:
            self._fail(
                "max_threads_per_block",
                f"must not exceed max_threads_per_sm "
                f"({self.max_threads_per_sm})",
                self.max_threads_per_block,
            )
        if self.warp_size > self.max_threads_per_block:
            self._fail(
                "warp_size",
                f"must not exceed max_threads_per_block "
                f"({self.max_threads_per_block})",
                self.warp_size,
            )
        for field in ("compute_capability", "max_block_dim", "max_grid_dim"):
            dims = getattr(self, field)
            if any(not isinstance(d, int) or d < 0 for d in dims):
                self._fail(field, "must hold non-negative integers", dims)

    @property
    def total_cores(self) -> int:
        """CUDA cores across all SMs."""
        return self.num_sms * self.cores_per_sm

    def with_overrides(self, **kwargs: Any) -> "DeviceSpec":
        """A copy of this spec with fields replaced (for ablations)."""
        return replace(self, **kwargs)


GEFORCE_GT_560M = DeviceSpec(
    name="GeForce GT 560M",
    compute_capability=(2, 1),
    num_sms=4,
    cores_per_sm=48,
    warp_size=32,
    max_threads_per_block=1024,
    max_threads_per_sm=1536,
    max_blocks_per_sm=8,
    registers_per_sm=32768,
    shared_mem_per_sm=48 * 1024,
    shared_mem_per_block=48 * 1024,
    constant_mem_bytes=64 * 1024,
    global_mem_bytes=2 * 1024**3,
    core_clock_hz=1.55e9,
    mem_bandwidth_bytes_per_s=60e9,
    pcie_bandwidth_bytes_per_s=6e9,  # PCIe 2.0 x16, effective
    pcie_latency_s=10e-6,
    kernel_launch_overhead_s=6e-6,
    atomic_op_s=40e-9,
)

GENERIC_FERMI = GEFORCE_GT_560M.with_overrides(
    name="Generic Fermi (desktop)",
    num_sms=8,
    core_clock_hz=1.4e9,
    mem_bandwidth_bytes_per_s=120e9,
)

TESLA_K20 = DeviceSpec(
    name="Tesla K20",
    compute_capability=(3, 5),
    num_sms=13,
    cores_per_sm=192,
    warp_size=32,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    registers_per_sm=65536,
    shared_mem_per_sm=48 * 1024,
    shared_mem_per_block=48 * 1024,
    constant_mem_bytes=64 * 1024,
    global_mem_bytes=5 * 1024**3,
    core_clock_hz=0.705e9,
    mem_bandwidth_bytes_per_s=208e9,
    pcie_bandwidth_bytes_per_s=6e9,
    pcie_latency_s=10e-6,
    kernel_launch_overhead_s=5e-6,
    atomic_op_s=25e-9,
)


class Device:
    """A simulated CUDA device instance.

    Parameters
    ----------
    spec:
        Hardware description (use a preset or a customized copy).
    seed:
        Seed for the device RNG (the cuRAND stand-in).
    profile:
        Record every activity in :attr:`profiler`.
    fault_plan:
        Optional :class:`repro.resilience.FaultPlan`: deterministically
        raises a chosen :class:`CudaError` on the N-th launch/allocation,
        so the resilient execution layer can be tested against realistic
        device failures.
    timing:
        The :class:`~repro.gpusim.timing.TimingModel` all durations
        are charged through; ``None`` uses the calibrated analytic default
        (bit-identical to the pre-refactor inline model).
    """

    def __init__(
        self, spec: DeviceSpec = GEFORCE_GT_560M, seed: int = 0,
        profile: bool = True, fault_plan: Any | None = None,
        timing: TimingModel | None = None,
    ) -> None:
        self.spec = spec
        self.timing = timing if timing is not None else TimingModel.default()
        self.fault_plan = fault_plan
        self.global_mem = GlobalMemory(spec.global_mem_bytes)
        self.constant_mem = ConstantMemory(spec.constant_mem_bytes)
        self.rng = DeviceRNG(seed)
        self.profiler = Profiler(enabled=profile)
        self.stream = Stream()
        self._host_time = 0.0
        self._syncthreads_count = 0
        self._launch_count = 0

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    @property
    def host_time(self) -> float:
        """Simulated host wall clock (advances on sync operations)."""
        return self._host_time

    @property
    def device_busy_until(self) -> float:
        """Simulated time when all queued device work completes."""
        return self.stream.tail_time

    def synchronize(self) -> float:
        """Block the host until the device is idle; returns host time."""
        start = self._host_time
        self._host_time = self.stream.wait(self._host_time)
        self.profiler.record(
            "cudaDeviceSynchronize", "sync", start, self._host_time - start
        )
        return self._host_time

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def malloc(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        label: str = "",
    ) -> DeviceBuffer:
        """Allocate device global memory (see :class:`GlobalMemory`)."""
        if self.fault_plan is not None:
            self.fault_plan.record("malloc")
        return self.global_mem.alloc(shape, dtype, label)

    def memcpy_htod(self, buf: DeviceBuffer, host: np.ndarray) -> None:
        """Synchronous host-to-device copy; charges PCIe transfer time."""
        self._check_buffer(buf)
        host_arr = np.asarray(host)
        if host_arr.shape != buf.shape:
            raise ValueError(
                f"shape mismatch: host {host_arr.shape} vs device {buf.shape}"
            )
        buf.array[...] = host_arr
        self._charge_transfer("memcpy_htod", buf)

    def memcpy_dtoh(self, buf: DeviceBuffer) -> np.ndarray:
        """Synchronous device-to-host copy; returns a host-owned array."""
        self._check_buffer(buf)
        # D2H must wait for queued kernels that may still write the buffer.
        self.synchronize()
        out = buf.array.copy()
        self._charge_transfer("memcpy_dtoh", buf)
        return out

    def upload_constant(self, name: str, value: np.ndarray | float | int) -> None:
        """Place a symbol in constant memory (with its transfer charged)."""
        self.constant_mem.upload(name, value)
        nbytes = np.asarray(value).nbytes
        duration = self.timing.transfer_time(self.spec, nbytes)
        self.profiler.record(
            f"constant:{name}", "memcpy_htod", self._host_time, duration,
            bytes=nbytes,
        )
        self._host_time += duration

    def _charge_transfer(self, kind: str, buf: DeviceBuffer) -> None:
        duration = self.timing.transfer_time(self.spec, buf.nbytes)
        self.profiler.record(
            f"{kind}:{buf.label or 'buffer'}", kind, self._host_time, duration,
            bytes=buf.nbytes,
        )
        self._host_time += duration
        # cudaMemcpy is synchronous: it also implies the device caught up.
        self._host_time = self.stream.wait(self._host_time)

    def _check_buffer(self, buf: DeviceBuffer) -> None:
        buf.check_alive()
        if not self.global_mem.owns(buf):
            raise InvalidHandleError("buffer belongs to a different device")

    # ------------------------------------------------------------------
    # Kernel launch
    # ------------------------------------------------------------------
    def launch(
        self, kern: Kernel, config: LaunchConfig, *args: Any
    ) -> ThreadContext:
        """Execute ``kern`` over the launch geometry and charge its cost.

        The kernel body runs immediately (vectorized); the modeled duration
        is enqueued on the stream (asynchronous semantics -- the host clock
        does not advance until a synchronizing call).
        """
        if self.fault_plan is not None:
            # Counted before any work, so an injected fault prevents the
            # launch exactly as a driver error would (nothing enqueued).
            self.fault_plan.record("launch")
        config.validate(self.spec)
        shared = kern.shared_bytes_for(*args) + config.shared_mem_bytes
        if shared > self.spec.shared_mem_per_block:
            raise CudaError(
                f"kernel {kern.name!r} needs {shared} B shared memory per "
                f"block; device limit is {self.spec.shared_mem_per_block} B"
            )
        occ = occupancy(
            self.spec, config.threads_per_block,
            kern.registers_per_thread, shared,
        )

        ctx = ThreadContext(
            config=config, constant=self.constant_mem,
            rng=self.rng, device=self,
        )
        for a in args:
            if isinstance(a, DeviceBuffer):
                self._check_buffer(a)
        kern.fn(ctx, *args)
        cost = kern.cost_model(ctx, *args)

        timing = self.timing.kernel_timing(
            self.spec, config, occ.blocks_per_sm, cost
        )
        duration = timing.total_s
        start, _ = self.stream.enqueue(self._host_time, duration)
        self.profiler.record(
            kern.name, "kernel", start, duration,
            grid=config.grid.as_tuple(), block=config.block.as_tuple(),
            occupancy=occ.occupancy, limiter=occ.limiter,
            waves=waves(self.spec, config.num_blocks, occ.blocks_per_sm),
            cycles_per_thread=cost.cycles_per_thread,
            bytes_per_thread=cost.global_bytes_per_thread,
            atomics=cost.atomic_ops,
            roofline_limiter=timing.limiter,
            components=timing.components(),
        )
        self._launch_count += 1
        return ctx

    # ------------------------------------------------------------------
    # Introspection hooks
    # ------------------------------------------------------------------
    def _note_syncthreads(self) -> None:
        self._syncthreads_count += 1

    @property
    def syncthreads_count(self) -> int:
        """How many block barriers kernels have executed (test hook)."""
        return self._syncthreads_count

    @property
    def launch_count(self) -> int:
        """Total kernels launched on this device."""
        return self._launch_count

    def reset_clocks(self) -> None:
        """Zero the simulated clocks and profiler (memory is kept)."""
        self._host_time = 0.0
        self.stream = Stream()
        self.profiler.reset()
