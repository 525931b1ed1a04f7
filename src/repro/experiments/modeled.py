"""One modeled fitness launch: the measurement behind the kernel studies.

The block-size and texture ablations and the Figure 11 surface all time
the same thing: a family's fitness kernel over a seeded random population
on a fresh simulated device, with staging excluded from the clock.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.engine.adapters import adapter_for
from repro.gpusim.device import Device
from repro.gpusim.launch import Occupancy, linear_config, occupancy
from repro.gpusim.profiles import DEFAULT_PROFILE, get_profile
from repro.kernels.data import DeviceProblemData
from repro.permutation import random_permutations

__all__ = ["modeled_fitness_launch"]


def modeled_fitness_launch(
    instance: Any,
    threads: int,
    block: int,
    fault_plan: Any = None,
    device_profile: str = DEFAULT_PROFILE,
    use_texture: bool = False,
) -> tuple[float, Occupancy]:
    """Modeled kernel seconds of one fitness launch, and its occupancy.

    ``threads`` random sequences (host RNG seed 7) are staged on a device
    of ``device_profile`` (device seed 1), the clocks are reset, and one
    launch of ``block`` threads per block is timed.
    """
    profile = get_profile(device_profile)
    kernel = adapter_for(instance).make_fitness_kernel(use_texture)
    device = Device(spec=profile.spec, seed=1, fault_plan=fault_plan,
                    timing=profile.create_timing_model())
    data = DeviceProblemData(device, instance)
    n = instance.n
    seqs = device.malloc((threads, n), np.int32, "sequences")
    out = device.malloc(threads, np.float64, "fitness")
    rng = np.random.default_rng(7)
    device.memcpy_htod(seqs, random_permutations(rng, threads, n))
    args = (seqs, *data.fitness_buffers(), out)
    device.reset_clocks()  # isolate the kernel from the staging cost
    device.launch(kernel, linear_config(threads, block), *args)
    device.synchronize()
    occ = occupancy(profile.spec, block, kernel.registers_per_thread,
                    kernel.shared_bytes_for(*args))
    return float(device.profiler.kernel_time()), occ
