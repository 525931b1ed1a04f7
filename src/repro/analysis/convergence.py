"""Instrumented parallel-SA runs: convergence, acceptance and diversity.

A trace *is* the production run, observed: :func:`trace_parallel_sa` calls
:func:`repro.core.parallel_sa.parallel_sa` on the gpusim backend with
``record_history=True`` and hands it an observing :class:`GpusimBackend`
subclass.  The observer launches nothing of its own; it reads the
per-generation statistics off the kernel arguments the driver already
passes (the energy buffer around each ``acceptance`` launch and that
launch's temperature) and off the population at each in-loop
``synchronize``.  The best-ever curve is the solve's own history, and the
modeled device time is the solve's own: host-side reads are not charged
to the modeled clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.analysis.diversity import positional_entropy
from repro.core.engine.backends import GpusimBackend
from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance

__all__ = ["ConvergenceTrace", "trace_parallel_sa"]


@dataclass
class ConvergenceTrace:
    """Per-generation statistics of one instrumented run."""

    variant: str
    best: np.ndarray  # best-ever energy after each generation
    mean_energy: np.ndarray  # ensemble mean energy
    acceptance_rate: np.ndarray  # fraction of chains accepting
    temperature: np.ndarray
    diversity_generations: np.ndarray  # where diversity was sampled
    diversity: np.ndarray  # positional entropy at those generations
    meta: dict = field(default_factory=dict)

    @property
    def generations(self) -> int:
        """Number of traced generations."""
        return int(self.best.size)

    def final_diversity(self) -> float:
        """Ensemble diversity at the last sample point."""
        return float(self.diversity[-1]) if self.diversity.size else 0.0

    def summary(self) -> str:
        """One-line digest."""
        return (
            f"{self.variant}: best {self.best[-1]:g}, "
            f"final diversity {self.final_diversity():.3f}, "
            f"mean acceptance {self.acceptance_rate.mean():.2%}"
        )


class _TraceObserver(GpusimBackend):
    """The gpusim backend, reading generation statistics off the launches.

    The driver synchronizes once after every generation and once more
    before the final download; only the first ``iterations`` are sampled.
    """

    def __init__(self, iterations: int, diversity_every: int) -> None:
        super().__init__()
        self.iterations = iterations
        self.diversity_every = diversity_every
        self.mean_energy: list[float] = []
        self.acceptance: list[float] = []
        self.temperature: list[float] = []
        self.div_gens: list[int] = []
        self.div_vals: list[float] = []

    def launch(self, kern: Any, config: Any, *args: Any) -> None:
        if kern.name != "acceptance":
            super().launch(kern, config, *args)
            return
        self._seqs, _, self._energy, _, temperature = args
        pre = self._energy.array.copy()
        super().launch(kern, config, *args)
        self.acceptance.append(float(np.mean(self._energy.array != pre)))
        self.temperature.append(temperature)

    def synchronize(self) -> None:
        super().synchronize()
        it = len(self.mean_energy)
        if it == self.iterations:
            return
        self.mean_energy.append(float(self._energy.array.mean()))
        if it % self.diversity_every == 0 or it == self.iterations - 1:
            self.div_gens.append(it)
            self.div_vals.append(positional_entropy(self._seqs.array))


def trace_parallel_sa(
    instance: CDDInstance | UCDDCPInstance,
    config: ParallelSAConfig = ParallelSAConfig(),
    diversity_every: int = 10,
) -> ConvergenceTrace:
    """Run the parallel SA with full per-generation instrumentation."""
    observer = _TraceObserver(config.iterations, diversity_every)
    result = parallel_sa(
        instance, replace(config, record_history=True), backend=observer
    )
    return ConvergenceTrace(
        variant=config.variant,
        best=result.history,
        mean_energy=np.asarray(observer.mean_energy),
        acceptance_rate=np.asarray(observer.acceptance),
        temperature=np.asarray(observer.temperature),
        diversity_generations=np.asarray(observer.div_gens),
        diversity=np.asarray(observer.div_vals),
        meta={"t0": result.params["t0"], "population": config.population,
              "modeled_device_time_s": result.modeled_device_time_s},
    )
