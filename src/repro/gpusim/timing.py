"""The analytic timing model of the simulated device.

A device generation is *data* (a :class:`~repro.gpusim.device.DeviceSpec`)
charged through one *model* (:class:`TimingModel`), whose methods turn the
spec's rates into seconds:

* launch overhead -- a fixed cost per launch plus per-block dispatch
  scheduling;
* execution -- the kernel-lifetime roofline ``waves x max(compute,
  memory)`` with latency-hiding efficiency and shared-memory staging;
* transfers -- host<->device copies over the PCIe link (via
  :func:`repro.gpusim.memory.transfer_time`);
* atomics -- serialized atomic updates at the L2 latency.

One launch charges

    overhead + max(compute, memory) + staging + dispatch + atomic

summed in exactly that (left-associative) order -- the golden-timing
tests in ``tests/test_engine_backends.py`` and
``tests/test_timing_model_properties.py`` pin this byte-for-byte.

:class:`KernelTiming` keeps the per-component breakdown alongside the
total, which is what the profiler's nvprof-style component attribution
(``Profiler.component_summary``) reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.gpusim.memory import transfer_time

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpusim.device import DeviceSpec
    from repro.gpusim.kernel import KernelCost
    from repro.gpusim.launch import LaunchConfig

__all__ = ["KernelTiming", "TimingModel", "waves"]


def waves(spec: "DeviceSpec", num_blocks: int, blocks_per_sm: int) -> int:
    """Block waves the busiest SM processes over a kernel's lifetime.

    ``ceil(num_blocks / num_sms)`` blocks land on the busiest SM; it runs
    them ``blocks_per_sm`` (the occupancy result) at a time.
    """
    per_sm_blocks = math.ceil(num_blocks / spec.num_sms)
    return math.ceil(per_sm_blocks / blocks_per_sm)


@dataclass(frozen=True)
class KernelTiming:
    """Per-component breakdown of one modeled kernel launch.

    The components are kept separate (not pre-summed) so profiler
    attribution can break a launch out into overhead vs compute vs memory
    vs atomics; :attr:`total_s` reassembles them in the exact summation
    order of the pre-refactor inline model, preserving bit-identity.
    """

    overhead_s: float
    compute_s: float
    memory_s: float
    staging_s: float
    dispatch_s: float
    atomic_s: float

    @property
    def roofline_s(self) -> float:
        """The charged roofline leg: the slower of compute and memory."""
        return max(self.compute_s, self.memory_s)

    @property
    def limiter(self) -> str:
        """Which roofline leg dominates this launch."""
        return "compute" if self.compute_s >= self.memory_s else "memory"

    @property
    def total_s(self) -> float:
        """Total modeled duration of the launch."""
        # Exact term order of the original Device._model_duration return
        # expression -- do not regroup (floating-point addition order is
        # part of the bit-identity contract).
        return (
            self.overhead_s
            + max(self.compute_s, self.memory_s)
            + self.staging_s
            + self.dispatch_s
            + self.atomic_s
        )

    def components(self) -> dict[str, float]:
        """Attribution of the total to named components (sums to total).

        The losing roofline leg is attributed zero time -- it is hidden
        behind the winning one, exactly as on hardware.
        """
        compute_charged = self.roofline_s if self.limiter == "compute" else 0.0
        memory_charged = self.roofline_s if self.limiter == "memory" else 0.0
        return {
            "overhead": self.overhead_s,
            "compute": compute_charged,
            "memory": memory_charged,
            "staging": self.staging_s,
            "dispatch": self.dispatch_s,
            "atomic": self.atomic_s,
        }


@dataclass(frozen=True)
class TimingModel:
    """How a :class:`~repro.gpusim.device.Device` turns spec rates into
    charged seconds -- the calibrated analytic model every profile uses.

    The roofline: the busiest SM processes ``ceil(num_blocks / num_sms)``
    blocks over the kernel's lifetime; its total thread-cycles divided by
    the SM's issue rate give the compute time.  When fewer warps are
    resident than the latency-hiding depth, the issue rate degrades
    proportionally.  Global traffic is charged against the device
    bandwidth, shared-memory staging once per block at on-chip bandwidth
    -- which is what makes needlessly small blocks (duplicated staging,
    more dispatches) and needlessly large blocks (idle SMs) both lose to
    the paper's 192-thread sweet spot.
    """

    #: Shared-memory staging bandwidth relative to global memory (on-chip).
    STAGING_BANDWIDTH_RATIO: ClassVar[float] = 4.0

    @classmethod
    def default(cls) -> "TimingModel":
        """The calibrated analytic model (pre-refactor math, bit-exact)."""
        return cls()

    def launch_overhead(
        self, spec: "DeviceSpec", config: "LaunchConfig"
    ) -> float:
        """One-time driver/runtime cost of issuing the launch."""
        return spec.kernel_launch_overhead_s

    def dispatch_time(
        self, spec: "DeviceSpec", config: "LaunchConfig"
    ) -> float:
        """Cost of scheduling the grid's blocks onto the SMs."""
        return config.num_blocks * spec.block_dispatch_overhead_s

    def compute_time(
        self,
        spec: "DeviceSpec",
        config: "LaunchConfig",
        blocks_per_sm: int,
        cost: "KernelCost",
    ) -> float:
        """SM-issue time of the busiest SM's thread-cycles."""
        tpb = config.threads_per_block
        per_sm_blocks = math.ceil(config.num_blocks / spec.num_sms)
        warps_per_block = math.ceil(tpb / spec.warp_size)
        resident_warps = min(per_sm_blocks, blocks_per_sm) * warps_per_block
        efficiency = min(1.0, resident_warps / spec.latency_hiding_warps)
        return (
            cost.cycles_per_thread * per_sm_blocks * tpb
            / (spec.cores_per_sm * spec.instructions_per_cycle)
            / spec.core_clock_hz
        ) / efficiency

    def memory_time(
        self, spec: "DeviceSpec", config: "LaunchConfig", cost: "KernelCost"
    ) -> float:
        """Global-memory traffic charged against device bandwidth."""
        return (
            cost.global_bytes_per_thread * config.total_threads
            / spec.mem_bandwidth_bytes_per_s
        )

    def staging_time(
        self, spec: "DeviceSpec", config: "LaunchConfig", cost: "KernelCost"
    ) -> float:
        """Per-block shared-memory staging traffic."""
        return (
            cost.shared_bytes_per_block * config.num_blocks
            / (self.STAGING_BANDWIDTH_RATIO * spec.mem_bandwidth_bytes_per_s)
        )

    def atomic_time(self, spec: "DeviceSpec", cost: "KernelCost") -> float:
        """Every contending atomic pays the L2 latency in turn."""
        return cost.atomic_ops * spec.atomic_op_s

    def kernel_timing(
        self,
        spec: "DeviceSpec",
        config: "LaunchConfig",
        blocks_per_sm: int,
        cost: "KernelCost",
    ) -> KernelTiming:
        """Component breakdown of one launch."""
        return KernelTiming(
            overhead_s=self.launch_overhead(spec, config),
            compute_s=self.compute_time(spec, config, blocks_per_sm, cost),
            memory_s=self.memory_time(spec, config, cost),
            staging_s=self.staging_time(spec, config, cost),
            dispatch_s=self.dispatch_time(spec, config),
            atomic_s=self.atomic_time(spec, cost),
        )

    def transfer_time(self, spec: "DeviceSpec", nbytes: int) -> float:
        """Host<->device copy duration: PCIe latency plus bytes over link
        bandwidth."""
        return transfer_time(
            nbytes, spec.pcie_bandwidth_bytes_per_s, spec.pcie_latency_s
        )
