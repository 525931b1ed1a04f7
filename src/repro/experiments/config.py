"""Experiment scaling: smoke / quick / full workload grids.

The paper's full evaluation (768 threads, up to 1000 jobs, 40 instances per
size, 5000 generations) is far beyond a single-core Python budget, so every
experiment reads its workload from an :class:`ExperimentScale`:

* ``full``  -- the paper's grid verbatim;
* ``quick`` -- the default: the same *structure* (four algorithms, a 1:5
  iteration ratio, multiple sizes and replicates) at roughly 1/50 the
  compute, which preserves every qualitative shape the tables show;
* ``smoke`` -- minutes-long CI sanity scale.

Select with the ``REPRO_SCALE`` environment variable or pass a scale
explicitly to the experiment functions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """One workload grid for the whole experiment suite."""

    name: str
    sizes: tuple[int, ...]
    h_factors: tuple[float, ...]
    k_values: tuple[int, ...]
    iterations_low: int
    iterations_high: int
    grid_size: int
    block_size: int
    # Reference ("best known") budget: multi-restart serial SA playing the
    # role of the sequential implementations [7]/[8] the paper's deviations
    # are measured against.  The chain length is set to ~3x the strongest
    # tabulated parallel variant so the reference sits at a comparable
    # convergence level -- see EXPERIMENTS.md ("reference strength").
    bestknown_restarts: int
    bestknown_iterations: int
    fig11_thread_counts: tuple[int, ...]
    fig11_generations: tuple[int, ...]
    fig11_n: int
    blocksize_candidates: tuple[int, ...] = (32, 64, 96, 128, 192, 256, 384,
                                             512, 768, 1024)
    cooling_rates: tuple[float, ...] = (0.80, 0.84, 0.88, 0.92, 0.96, 0.99)
    seeds: tuple[int, ...] = (11,)

    @property
    def population(self) -> int:
        """Ensemble size (chains / particles)."""
        return self.grid_size * self.block_size

    @property
    def instances_per_size(self) -> int:
        """CDD instances aggregated per job size."""
        return len(self.h_factors) * len(self.k_values)


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        sizes=(10, 20),
        h_factors=(0.4,),
        k_values=(1,),
        iterations_low=60,
        iterations_high=300,
        grid_size=2,
        block_size=32,
        bestknown_restarts=4,
        bestknown_iterations=900,
        fig11_thread_counts=(64, 256, 1024),
        fig11_generations=(50, 100, 200),
        fig11_n=20,
    ),
    "quick": ExperimentScale(
        name="quick",
        sizes=(10, 20, 50, 100, 200),
        h_factors=(0.4, 0.8),
        k_values=(1, 2, 3),
        iterations_low=250,
        iterations_high=1250,
        grid_size=4,
        block_size=48,
        bestknown_restarts=6,
        bestknown_iterations=3750,
        fig11_thread_counts=(64, 128, 192, 384, 768, 1024),
        fig11_generations=(250, 500, 1000, 2000, 5000),
        fig11_n=100,
    ),
    "full": ExperimentScale(
        name="full",
        sizes=(10, 20, 50, 100, 200, 500, 1000),
        h_factors=(0.2, 0.4, 0.6, 0.8),
        k_values=tuple(range(1, 11)),
        iterations_low=1000,
        iterations_high=5000,
        grid_size=4,
        block_size=192,
        bestknown_restarts=6,
        bestknown_iterations=15000,
        fig11_thread_counts=(64, 128, 192, 384, 768, 1024, 2048),
        fig11_generations=(250, 500, 1000, 2000, 5000),
        fig11_n=500,
    ),
}


def get_scale(name: str | None = None) -> ExperimentScale:
    """Resolve a scale by name, ``REPRO_SCALE``, or the ``quick`` default."""
    resolved = name or os.environ.get("REPRO_SCALE", "quick")
    try:
        return SCALES[resolved]
    except KeyError:
        raise KeyError(
            f"unknown scale {resolved!r}; available: {sorted(SCALES)}"
        ) from None
