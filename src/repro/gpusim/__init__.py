"""A simulated CUDA device: the GPGPU substrate of this reproduction.

The paper runs its metaheuristics on a GeForce GT 560M via CUDA.  No GPU is
available here, so this subpackage implements a faithful *model* of the CUDA
execution environment:

* :mod:`~repro.gpusim.device` -- device specifications (SM count, warp size,
  registers, shared memory, clocks, bandwidths; a GT 560M preset) and the
  :class:`~repro.gpusim.device.Device` object tying everything together.
* :mod:`~repro.gpusim.launch` -- ``dim3`` grids/blocks, launch validation and
  the occupancy calculator.
* :mod:`~repro.gpusim.memory` -- global/constant/shared memory with capacity
  accounting and host<->device transfer costs.
* :mod:`~repro.gpusim.kernel` -- the kernel abstraction.  Numerically a
  kernel executes *vectorized over the thread axis* (every thread runs the
  same program on its own data -- SIMT); its wall-clock cost on the modeled
  device is computed from an explicit cost model (cycles and bytes per
  thread, block waves per SM, occupancy, compute-vs-bandwidth roofline).
* :mod:`~repro.gpusim.stream` -- asynchronous kernel queues and device
  synchronization semantics.
* :mod:`~repro.gpusim.rng` -- a cuRAND stand-in: counter-based, per-thread
  reproducible random streams.
* :mod:`~repro.gpusim.reduction` -- atomic-minimum reduction with an L2
  serialization cost.
* :mod:`~repro.gpusim.profiler` -- an nvprof-like event recorder with
  per-timing-component attribution.
* :mod:`~repro.gpusim.timing` -- the analytic
  :class:`~repro.gpusim.timing.TimingModel` (launch overhead, roofline
  execution, PCIe transfer, atomics).
* :mod:`~repro.gpusim.profiles` -- the named device-profile registry
  (GT 560M, generic Fermi, K20, Pascal, Ampere).

The split keeps *algorithmic results* exact (pure NumPy math, identical to
what each CUDA thread would compute) while *runtimes* come from the device
model; see DESIGN.md for the substitution rationale.
"""

from repro.gpusim.device import (
    GEFORCE_GT_560M,
    GENERIC_FERMI,
    TESLA_K20,
    Device,
    DeviceSpec,
)
from repro.gpusim.events import Event, elapsed_time, record_event
from repro.gpusim.errors import (
    CudaError,
    DeviceAllocationError,
    InvalidLaunchError,
)
from repro.gpusim.kernel import Kernel, KernelCost, ThreadContext, kernel
from repro.gpusim.launch import (
    Dim3,
    LaunchConfig,
    Occupancy,
    linear_config,
    occupancy,
)
from repro.gpusim.memory import ConstantMemory, DeviceBuffer, GlobalMemory
from repro.gpusim.profiler import ProfileEvent, Profiler
from repro.gpusim.profiles import (
    DEFAULT_PROFILE,
    DeviceProfile,
    get_profile,
    profile_names,
    register_profile,
)
from repro.gpusim.rng import DeviceRNG
from repro.gpusim.stream import Stream
from repro.gpusim.timing import KernelTiming, TimingModel

__all__ = [
    "Device",
    "DeviceSpec",
    "GEFORCE_GT_560M",
    "GENERIC_FERMI",
    "TESLA_K20",
    "CudaError",
    "DeviceAllocationError",
    "InvalidLaunchError",
    "Kernel",
    "KernelCost",
    "ThreadContext",
    "kernel",
    "Dim3",
    "linear_config",
    "LaunchConfig",
    "Occupancy",
    "occupancy",
    "DeviceBuffer",
    "GlobalMemory",
    "ConstantMemory",
    "Profiler",
    "ProfileEvent",
    "TimingModel",
    "KernelTiming",
    "DeviceProfile",
    "DEFAULT_PROFILE",
    "register_profile",
    "get_profile",
    "profile_names",
    "DeviceRNG",
    "Stream",
    "Event",
    "record_event",
    "elapsed_time",
]
