"""Named device profiles: a registry of GPU generations for gpusim.

The paper's speedup tables are pinned to one device -- a Fermi-class
GeForce GT 560M (the text says "Kepler device", but the GT 560M is GF116
silicon; see ``docs/paper_mapping.md``).  This registry makes the device
a *parameter*: each :class:`DeviceProfile` pairs a validated
:class:`~repro.gpusim.device.DeviceSpec` with the
:class:`~repro.gpusim.timing.TimingModel` it charges time through, so
experiments can sweep the modeled speedup surface across generations
(``repro experiment device_surface``).

Profiles (see ``docs/device_profiles.md`` for the full table):

* ``gt560m`` -- the paper's mobile Fermi (default everywhere);
* ``fermi``  -- a generic desktop Fermi for contrast;
* ``k20``    -- Tesla K20, the Kepler the paper's text *claims*;
* ``pascal`` -- a GTX 1080-class Pascal part;
* ``ampere`` -- an A100-class datacenter Ampere part.

Register additional generations with :func:`register_profile`; the spec
validates itself at construction, so a typo'd profile fails loudly at
import time rather than producing nonsense modeled runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import (
    GEFORCE_GT_560M,
    GENERIC_FERMI,
    TESLA_K20,
    DeviceSpec,
)
from repro.gpusim.timing import TimingModel

__all__ = [
    "DeviceProfile",
    "DEFAULT_PROFILE",
    "register_profile",
    "get_profile",
    "profile_names",
    "PASCAL_GTX_1080",
    "AMPERE_A100",
]

#: The profile every config/CLI flag defaults to -- the paper's device.
DEFAULT_PROFILE = "gt560m"


@dataclass(frozen=True)
class DeviceProfile:
    """One registered GPU generation: hardware numbers plus timing model.

    The spec is *data* (validated hardware limits and rates) and the
    timing model is *behaviour* (how those rates turn into charged
    seconds); keeping them together means a profile fully determines
    modeled runtimes, which is what makes cross-generation speedup
    tables meaningful.
    """

    key: str
    generation: str
    year: int
    spec: DeviceSpec
    notes: str = ""

    def create_timing_model(self) -> TimingModel:
        """The timing model launches on this profile charge through."""
        return TimingModel.default()


PASCAL_GTX_1080 = DeviceSpec(
    name="GeForce GTX 1080",
    compute_capability=(6, 1),
    num_sms=20,
    cores_per_sm=128,
    warp_size=32,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65536,
    shared_mem_per_sm=96 * 1024,
    shared_mem_per_block=48 * 1024,
    constant_mem_bytes=64 * 1024,
    global_mem_bytes=8 * 1024**3,
    core_clock_hz=1.607e9,
    mem_bandwidth_bytes_per_s=320e9,
    pcie_bandwidth_bytes_per_s=12e9,  # PCIe 3.0 x16, effective
    pcie_latency_s=8e-6,
    kernel_launch_overhead_s=4e-6,
    atomic_op_s=10e-9,
    latency_hiding_warps=8,
    block_dispatch_overhead_s=0.15e-6,
)

AMPERE_A100 = DeviceSpec(
    name="A100-SXM4-40GB",
    compute_capability=(8, 0),
    num_sms=108,
    cores_per_sm=64,
    warp_size=32,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65536,
    shared_mem_per_sm=164 * 1024,
    shared_mem_per_block=163 * 1024,
    constant_mem_bytes=64 * 1024,
    global_mem_bytes=40 * 1024**3,
    core_clock_hz=1.41e9,
    mem_bandwidth_bytes_per_s=1555e9,
    pcie_bandwidth_bytes_per_s=25e9,  # PCIe 4.0 x16, effective
    pcie_latency_s=5e-6,
    kernel_launch_overhead_s=3e-6,
    atomic_op_s=4e-9,
    latency_hiding_warps=10,
    block_dispatch_overhead_s=0.1e-6,
)


_REGISTRY: dict[str, DeviceProfile] = {}


def register_profile(profile: DeviceProfile) -> DeviceProfile:
    """Add a profile to the registry (rejects duplicate keys)."""
    if profile.key in _REGISTRY:
        raise ValueError(
            f"device profile {profile.key!r} is already registered "
            f"(as {_REGISTRY[profile.key].spec.name!r})"
        )
    _REGISTRY[profile.key] = profile  # repro-lint: disable=RPL006 -- import-time registration: built-ins register below at module load, so every worker process rebuilds the identical registry deterministically on import
    return profile


def get_profile(name: str) -> DeviceProfile:
    """Look up a profile by key, with the registry listed on miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown device profile {name!r}; registered profiles: {known}"
        ) from None


def profile_names() -> tuple[str, ...]:
    """Registered profile keys in registration order."""
    return tuple(_REGISTRY)


register_profile(DeviceProfile(
    key="gt560m",
    generation="Fermi (GF116)",
    year=2011,
    spec=GEFORCE_GT_560M,
    notes=(
        "The paper's device.  Its text calls it a 'Kepler device', but "
        "the GT 560M is Fermi-class GF116 silicon; we model the Fermi "
        "limits (cc 2.1, 4 SMs)."
    ),
))
register_profile(DeviceProfile(
    key="fermi",
    generation="Fermi (desktop)",
    year=2010,
    spec=GENERIC_FERMI,
    notes="Generic desktop Fermi: twice the SMs, double the bandwidth.",
))
register_profile(DeviceProfile(
    key="k20",
    generation="Kepler (GK110)",
    year=2012,
    spec=TESLA_K20,
    notes="The Kepler the paper's text claims; used in ablation benches.",
))
register_profile(DeviceProfile(
    key="pascal",
    generation="Pascal (GP104)",
    year=2016,
    spec=PASCAL_GTX_1080,
    notes="GTX 1080-class: 20 SMs, GDDR5X, PCIe 3.0.",
))
register_profile(DeviceProfile(
    key="ampere",
    generation="Ampere (GA100)",
    year=2020,
    spec=AMPERE_A100,
    notes="A100-class: 108 SMs, HBM2 at ~1.5 TB/s, PCIe 4.0.",
))
