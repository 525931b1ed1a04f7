"""Serial single-chain Simulated Annealing: the CPU baseline.

This is Algorithm 1 of the paper run as ordinary sequential code -- the
shape of CPU implementation the paper's speedups are measured against.  Two
evaluator backends are available:

* ``backend="numpy"`` -- the scalar O(n) optimizers (NumPy per sequence);
* ``backend="python"`` -- the pure-Python list evaluators of
  :mod:`repro.seqopt.pure_python` (no NumPy in the hot loop).  Use this one
  when *timing* the serial baseline: it is what a straightforward sequential
  implementation costs, without NumPy's per-call overhead distorting small
  ``n``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.cooling import (
    DEFAULT_COOLING_RATE,
    ExponentialCooling,
    estimate_initial_temperature,
)
from repro.core.engine.adapters import adapter_for
from repro.core.engine.config import (
    NeighborhoodConfigMixin,
    check_choice,
    check_init_policy,
    check_positive_iterations,
    check_start_temperature,
)
from repro.core.engine.driver import assemble_result
from repro.core.results import SolveResult
from repro.initialization import initial_population
from repro.permutation import partial_fisher_yates, sample_distinct_positions
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance

__all__ = ["SerialSAConfig", "sa_serial"]


@dataclass(frozen=True)
class SerialSAConfig(NeighborhoodConfigMixin):
    """Configuration of the serial SA chain (paper defaults)."""

    iterations: int = 1000
    cooling_rate: float = DEFAULT_COOLING_RATE
    pert_size: int = 4
    position_refresh: int = 1  # see ParallelSAConfig.position_refresh
    seed: int = 0
    t0: float | None = None  # None: estimate per [13]
    t0_samples: int = 5000
    backend: str = "numpy"  # "numpy" | "python"
    init: str = "random"  # "random" | "vshape" (see repro.initialization)
    record_history: bool = False

    def __post_init__(self) -> None:
        check_positive_iterations(self.iterations)
        self._check_neighborhood()
        check_choice("backend", self.backend, ("numpy", "python"))
        check_init_policy(self.init)
        check_start_temperature(self.t0, self.t0_samples)


def sa_serial(
    instance: CDDInstance | UCDDCPInstance,
    config: SerialSAConfig = SerialSAConfig(),
) -> SolveResult:
    """Run one serial SA chain on ``instance``; returns the best schedule."""
    rng = np.random.default_rng(config.seed)
    n = instance.n
    adapter = adapter_for(instance)
    evaluate = adapter.sequence_evaluator(
        pure_python=config.backend == "python"
    )

    t0 = (
        config.t0
        if config.t0 is not None
        else estimate_initial_temperature(instance, config.t0_samples, rng)
    )
    cooling = ExponentialCooling(t0=t0, mu=config.cooling_rate)

    start = time.perf_counter()
    state = initial_population(instance, 1, rng, config.init)[0]
    energy = evaluate(state)
    best_seq = state.copy()
    best_energy = energy
    pert = min(config.pert_size, n)
    positions = sample_distinct_positions(rng, n, pert)
    history = np.empty(config.iterations) if config.record_history else None

    temperature = t0
    for it in range(config.iterations):
        if it % config.position_refresh == 0 and it > 0:
            positions = sample_distinct_positions(rng, n, pert)
        candidate = partial_fisher_yates(rng, state, positions)
        cand_energy = evaluate(candidate)
        if temperature <= 0.0:
            accept = cand_energy <= energy
        else:
            accept = (
                math.exp(min((energy - cand_energy) / temperature, 50.0))
                >= rng.random()
            )
        if accept:
            state, energy = candidate, cand_energy
            if energy < best_energy:
                best_energy = energy
                best_seq = state.copy()
        temperature *= config.cooling_rate
        if history is not None:
            history[it] = best_energy
    wall = time.perf_counter() - start

    return assemble_result(
        adapter,
        best_seq,
        evaluations=config.iterations + 1,
        wall_time_s=wall,
        history=history,
        params={"algorithm": "sa_serial", **asdict(config), "t0": t0},
    )
