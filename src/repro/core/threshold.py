"""Threshold Accepting: one of the Biskup--Feldmann [18] CPU baselines.

Table III measures speedups against the CPU metaheuristics of Feldmann &
Biskup (2003), who evaluated Evolutionary Strategies, Simulated Annealing
and **Threshold Accepting (TA)** on the OR-library CDD set.  TA (Dueck &
Scheuer) is SA with the stochastic Metropolis rule replaced by a
deterministic one: accept a candidate iff

    E_new - E <= Theta_k

with a threshold ladder ``Theta_k`` decreasing to zero.  We drive the
ladder with the same exponential decay and initial spread estimate as the
SA (``Theta_0`` = std of random-sequence fitness), and reuse the Fisher--
Yates sub-sequence neighborhood, so TA/SA differ exactly in the acceptance
rule -- which is the comparison [18] draws.

Candidates are scored through the adapter's **batched objective** -- one
vectorized O(walkers x n) pass per iteration instead of a Python-level
scalar evaluation per candidate (the ES baseline already works this way).
``walkers`` independent TA chains therefore cost one batched pass each
iteration; the default of 1 reproduces the classic serial chain.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.cooling import (
    DEFAULT_COOLING_RATE,
    estimate_initial_temperature,
)
from repro.core.engine.adapters import adapter_for
from repro.core.engine.config import (
    NeighborhoodConfigMixin,
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

__all__ = ["ThresholdAcceptingConfig", "threshold_accepting"]


@dataclass(frozen=True)
class ThresholdAcceptingConfig(NeighborhoodConfigMixin):
    """Configuration of the serial Threshold Accepting baseline."""

    iterations: int = 1000
    decay: float = DEFAULT_COOLING_RATE  # threshold ladder decay per step
    pert_size: int = 4
    position_refresh: int = 1
    seed: int = 0
    theta0: float | None = None  # None: estimate like the SA's T0
    theta0_samples: int = 5000
    init: str = "random"
    record_history: bool = False
    #: Independent TA chains evaluated together in one batched objective
    #: pass per iteration (1 = the classic serial chain of [18]).
    walkers: int = 1

    def __post_init__(self) -> None:
        check_positive_iterations(self.iterations)
        if not (0.0 < self.decay < 1.0):
            raise ValueError("decay must lie in (0, 1)")
        self._check_neighborhood()
        check_init_policy(self.init)
        check_start_temperature(self.theta0, self.theta0_samples, "theta0")
        if self.walkers < 1:
            raise ValueError(f"walkers must be >= 1, got {self.walkers}")


def threshold_accepting(
    instance: CDDInstance | UCDDCPInstance,
    config: ThresholdAcceptingConfig = ThresholdAcceptingConfig(),
) -> SolveResult:
    """Run ``config.walkers`` TA chains; returns the best schedule found.

    Every candidate batch is scored with ``adapter.batched_objective`` --
    one vectorized pass over all walkers per iteration.  The threshold
    ladder is shared (all chains sit at the same ``Theta_k``); the chains
    themselves never interact, so walker 0 of a multi-walker run follows
    the exact trajectory of a single-walker run with the same seed.
    """
    rng = np.random.default_rng(config.seed)
    n = instance.n
    walkers = config.walkers
    adapter = adapter_for(instance)

    theta = (
        config.theta0
        if config.theta0 is not None
        else estimate_initial_temperature(instance, config.theta0_samples, rng)
    )

    start = time.perf_counter()
    states = initial_population(instance, walkers, rng, config.init)
    energies = adapter.batched_objective(states)
    best_w = int(np.argmin(energies))
    best_energy = float(energies[best_w])
    best_seq = states[best_w].copy()
    pert = min(config.pert_size, n)
    # Per-walker draws run in walker order so the walkers=1 trajectory is
    # byte-for-byte the classic serial chain under the same seed.
    positions = np.stack(
        [sample_distinct_positions(rng, n, pert) for _ in range(walkers)]
    )
    candidates = np.empty_like(states)
    history = np.empty(config.iterations) if config.record_history else None

    for it in range(config.iterations):
        if it % config.position_refresh == 0 and it > 0:
            positions = np.stack(
                [sample_distinct_positions(rng, n, pert)
                 for _ in range(walkers)]
            )
        for w in range(walkers):
            candidates[w] = partial_fisher_yates(rng, states[w], positions[w])
        cand_energies = adapter.batched_objective(candidates)
        # The deterministic TA rule: tolerate bounded deterioration.
        accept = cand_energies - energies <= theta
        states[accept] = candidates[accept]
        energies[accept] = cand_energies[accept]
        imin = int(np.argmin(energies))
        if energies[imin] < best_energy:
            best_energy = float(energies[imin])
            best_seq = states[imin].copy()
        theta *= config.decay
        if history is not None:
            history[it] = best_energy
    wall = time.perf_counter() - start

    return assemble_result(
        adapter,
        best_seq,
        evaluations=(config.iterations + 1) * walkers,
        wall_time_s=wall,
        history=history,
        params={"algorithm": "threshold_accepting", **asdict(config),
                "theta0": theta},
    )
