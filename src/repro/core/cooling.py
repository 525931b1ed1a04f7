"""Temperature schedules for Simulated Annealing.

The paper adopts the exponential cooling schedule ``T <- T * mu`` with
``mu = 0.88`` (selected experimentally from a range of cooling rates) and
estimates the initial temperature as "the standard deviation of fitness
values of 5000 different job sequences, generated randomly", following
Salamon, Sibani & Frost [13].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.permutation import random_permutations
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance

__all__ = ["ExponentialCooling", "estimate_initial_temperature"]

DEFAULT_COOLING_RATE = 0.88
DEFAULT_T0_SAMPLES = 5000
#: Rows drawn and scored at a time by :func:`estimate_initial_temperature`
#: (4 MB of keys at n = 1000).
T0_CHUNK_ROWS = 512


@dataclass(frozen=True)
class ExponentialCooling:
    """``T_k = T0 * mu^k`` -- the schedule of Algorithm 1, line 10."""

    t0: float
    mu: float = DEFAULT_COOLING_RATE

    def __post_init__(self) -> None:
        if not (0.0 < self.mu < 1.0):
            raise ValueError(f"cooling rate mu must be in (0, 1), got {self.mu}")
        if self.t0 < 0:
            raise ValueError(f"initial temperature must be non-negative: {self.t0}")

    def temperature(self, iteration: int) -> float:
        """Temperature at (0-based) iteration ``iteration``."""
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        return self.t0 * self.mu**iteration

    def schedule(self, iterations: int) -> np.ndarray:
        """The whole temperature ladder as an array."""
        return self.t0 * self.mu ** np.arange(iterations, dtype=np.float64)


def estimate_initial_temperature(
    instance: CDDInstance | UCDDCPInstance,
    samples: int = DEFAULT_T0_SAMPLES,
    rng: np.random.Generator | None = None,
) -> float:
    """Standard deviation of the fitness of ``samples`` random sequences.

    The sequences are drawn and scored streamed in chunks of at most
    :data:`T0_CHUNK_ROWS` rows (:func:`repro.permutation.random_permutations`,
    then the batched O(n) optimizers), so the transient memory does not
    grow with ``samples``.  Chunked draws give the same floats as one
    ``(samples, n)`` draw and leave ``rng`` in the same state, so the
    estimate does not depend on the chunk size.  A zero spread (e.g.
    ``n == 1``) returns 0.0, which the acceptance rule treats as greedy
    descent.
    """
    # Imported lazily: the adapter layer sits above this shared utility.
    from repro.core.engine.adapters import adapter_for

    if samples < 2:
        raise ValueError("need at least 2 samples to estimate a deviation")
    gen = rng if rng is not None else np.random.default_rng(0)
    objective = adapter_for(instance).batched_objective
    fitness = np.empty(samples, dtype=np.float64)
    for lo in range(0, samples, T0_CHUNK_ROWS):
        hi = min(lo + T0_CHUNK_ROWS, samples)
        seqs = random_permutations(gen, hi - lo, instance.n)
        fitness[lo:hi] = objective(seqs)
    return float(np.std(fitness))
