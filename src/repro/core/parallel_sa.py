"""GPU-parallel Simulated Annealing (Sections V and VI of the paper).

**Asynchronous variant** (the paper's main algorithm): every CUDA thread
runs an independent SA chain -- 4 blocks x 192 threads = 768 chains by
default.  Each generation launches the four kernels back to back on the
device stream:

    perturbation -> fitness -> acceptance -> reduction

followed by a host-side ``cudaDeviceSynchronize``.  The due date and job
count live in constant memory; penalties are staged per block into shared
memory inside the fitness kernel; cuRAND-style per-thread streams feed the
perturbation and acceptance kernels; the reduction kernel maintains the
global best with an atomic minimum.  Host<->device traffic happens exactly
twice (Figure 9): instance data and initial sequences in, the best solution
out -- and both transfers are charged to the modeled runtime, as the paper's
speedup figures include them.

**Synchronous variant** (Ferreiro et al., Section V-B): all chains run a
constant-temperature Markov segment of length ``M``; at the segment
boundary the best state is reduced and broadcast to every chain for the
next temperature level.  The paper rejects this variant for premature
convergence -- the ablation bench reproduces that observation.

**Domain-decomposition variant** (Ferreiro et al.'s second strategy,
Section V): the sequence space is partitioned by the job in the first
position -- chain ``t`` only explores sequences starting with job
``t mod n`` (the perturbation never touches position 0).  The paper calls
this strategy "ineffective for a job size of 50 or more" because fixing one
position barely shrinks the (n-1)! subdomain; the strategy ablation
reproduces exactly that.

The host program (device setup, generation loop, transfers, result
assembly) lives in :func:`repro.core.engine.driver.run_ensemble`; this
module contributes only the SA-specific state and kernel pipeline, and the
``backend`` argument picks the execution backend (``"gpusim"`` for modeled
timings, ``"vectorized"`` for the same trajectory without the device
model).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.cooling import (
    DEFAULT_COOLING_RATE,
    estimate_initial_temperature,
)
from repro.core.engine.adapters import ProblemAdapter
from repro.core.engine.backends import ExecutionBackend
from repro.core.engine.config import (
    DeviceSelectionMixin,
    EnsembleGeometryMixin,
    NeighborhoodConfigMixin,
    check_choice,
    check_init_policy,
    check_start_temperature,
)
from repro.core.engine.driver import EnsembleStrategy, run_ensemble
from repro.core.results import SolveResult
from repro.gpusim.device import DeviceSpec
from repro.gpusim.profiles import DEFAULT_PROFILE
from repro.gpusim.kernel import Kernel, KernelCost, ThreadContext, kernel
from repro.gpusim.launch import LaunchConfig
from repro.kernels.acceptance import make_acceptance_kernel
from repro.kernels.perturbation import make_perturbation_kernel
from repro.kernels.reduction_kernel import make_elitist_reduction_kernel
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance

__all__ = ["ParallelSAConfig", "ParallelSAStrategy", "parallel_sa"]


@dataclass(frozen=True)
class ParallelSAConfig(
    EnsembleGeometryMixin, NeighborhoodConfigMixin, DeviceSelectionMixin
):
    """Configuration of the parallel SA (paper defaults).

    ``grid_size * block_size`` threads run one chain each; the paper fixes
    the grid at 4 blocks and found 192 threads per block to work best on the
    GT 560M.
    """

    iterations: int = 1000
    grid_size: int = 4
    block_size: int = 192
    cooling_rate: float = DEFAULT_COOLING_RATE
    pert_size: int = 4
    # How often the Pert positions are re-sampled.  Section VI-B describes
    # the neighborhood as a freshly selected random sub-sequence, i.e. a
    # refresh every iteration (the default); Section VI's "after every 10 SA
    # iterations" reading is available as position_refresh=10 and is
    # contrasted in the ablation bench (it mixes far too slowly at large n).
    position_refresh: int = 1
    seed: int = 0
    t0: float | None = None
    t0_samples: int = 5000
    variant: str = "async"  # "async" | "sync" | "domain"
    sync_segment_length: int = 10  # Markov segment M of the sync variant
    record_history: bool = False
    # Initial population policy: "random" (paper default) or "vshape"
    # (extension; see repro.initialization).
    init: str = "random"
    # Route read-only gathers in the fitness kernel through the modeled
    # texture cache (the paper's future-work item).
    use_texture: bool = False
    # Hybrid extension: descend from the final best sequence with the
    # batched adjacent-swap local search (repro.seqopt.local_search).
    final_polish: bool = False
    # Modeled device: a registered profile name, or an explicit spec
    # (e.g. a with_overrides copy) that takes precedence when set.
    device_profile: str = DEFAULT_PROFILE
    device_spec: DeviceSpec | None = field(default=None)

    def __post_init__(self) -> None:
        self._check_geometry()
        self._check_neighborhood()
        self._check_device()
        check_choice("variant", self.variant, ("async", "sync", "domain"))
        if self.sync_segment_length < 1:
            raise ValueError("sync_segment_length must be positive")
        check_init_policy(self.init)
        check_start_temperature(self.t0, self.t0_samples)


def _make_broadcast_kernel() -> Kernel:
    """Broadcast one thread's state to all threads (sync variant only)."""

    def _cost(ctx: ThreadContext, seqs, energy, result) -> KernelCost:
        n = seqs.array.shape[1]
        return KernelCost(
            cycles_per_thread=20.0 + 8.0 * n,
            global_bytes_per_thread=2 * 4.0 * n + 8.0,
        )

    @kernel("broadcast_best", registers=16, cost=_cost)
    def broadcast_best(ctx: ThreadContext, seqs, energy, result) -> None:
        """Set every thread's state to the reduced best state."""
        s = ctx.total_threads
        src = int(result.array[1])
        seqs.array[:s] = seqs.array[src]
        energy.array[:s] = energy.array[src]

    return broadcast_best


class ParallelSAStrategy(EnsembleStrategy):
    """The SA-specific half of the ensemble driver.

    One chain per thread; per generation the four-kernel pipeline of
    Section VI (perturbation -> fitness -> acceptance -> elitist reduction),
    plus the variant-specific temperature bookkeeping and the sync
    variant's segment-boundary broadcast.
    """

    config: ParallelSAConfig

    @property
    def algorithm(self) -> str:
        return f"parallel_sa_{self.config.variant}"

    @property
    def shardable(self) -> bool:
        # The sync variant's segment-boundary broadcast copies one chain's
        # state to every chain -- a cross-chain read no shard can see.
        return self.config.variant != "sync"

    def prepare(
        self, adapter: ProblemAdapter, host_rng: np.random.Generator
    ) -> None:
        config = self.config
        self.adapter = adapter
        n = adapter.n
        self.min_position = 1 if config.variant == "domain" else 0
        self.pert = min(config.pert_size, n - self.min_position)
        if self.pert < 2:
            raise ValueError(
                "domain decomposition needs at least 3 jobs (2 free positions)"
            )
        self.t0 = (
            config.t0
            if config.t0 is not None
            else estimate_initial_temperature(
                adapter.instance, config.t0_samples, host_rng
            )
        )
        self.temperature = self.t0
        self.sync_countdown = config.sync_segment_length

    def allocate(
        self,
        backend: ExecutionBackend,
        adapter: ProblemAdapter,
        cfg: LaunchConfig,
    ) -> None:
        config = self.config
        pop, n = config.population, adapter.n
        self.seqs = backend.alloc((pop, n), np.int32, "sequences")
        self.cand = backend.alloc((pop, n), np.int32, "candidates")
        self.energy = backend.alloc(pop, np.float64, "energy")
        self.cand_energy = backend.alloc(pop, np.float64, "cand_energy")
        self.positions = backend.alloc((pop, self.pert), np.int64,
                                       "pert_positions")
        self.best_energy = backend.alloc(1, np.float64, "best_energy")
        self.best_seq = backend.alloc(n, np.int32, "best_sequence")
        self.result = backend.alloc(2, np.float64, "reduction_result")

        self.fitness_kernel = adapter.make_fitness_kernel(config.use_texture)
        self.perturbation_kernel = make_perturbation_kernel()
        self.acceptance_kernel = make_acceptance_kernel()
        self.reduction_kernel = make_elitist_reduction_kernel()
        self.broadcast_kernel = (
            _make_broadcast_kernel() if config.variant == "sync" else None
        )

    def prepare_population(self, init_seqs: np.ndarray) -> np.ndarray:
        if self.config.variant == "domain":
            # Partition the space by the first job: chain t explores the
            # subdomain of sequences starting with job t mod n.
            pop, n = init_seqs.shape
            first = (np.arange(pop) % n).astype(np.int32)
            for t in range(pop):
                row = init_seqs[t]
                swap_idx = int(np.nonzero(row == first[t])[0][0])
                row[0], row[swap_idx] = row[swap_idx], row[0]
        return init_seqs

    def _launch_fitness(self, backend, cfg, seq_buf, out_buf) -> None:
        backend.launch(
            self.fitness_kernel, cfg, seq_buf, *backend.fitness_buffers(),
            out_buf,
        )

    def initialize(self, backend: ExecutionBackend, cfg: LaunchConfig) -> None:
        # Initial evaluation and best tracking (device-side elitism).
        self.best_energy.array[0] = np.inf
        self._launch_fitness(backend, cfg, self.seqs, self.energy)
        backend.launch(
            self.reduction_kernel, cfg, self.energy, self.seqs,
            self.best_energy, self.best_seq, self.result,
        )

    def generation(
        self, backend: ExecutionBackend, cfg: LaunchConfig, it: int
    ) -> None:
        config = self.config
        refresh = it % config.position_refresh == 0
        backend.launch(
            self.perturbation_kernel, cfg, self.seqs, self.cand,
            self.positions, refresh, self.min_position,
        )
        self._launch_fitness(backend, cfg, self.cand, self.cand_energy)
        backend.launch(
            self.acceptance_kernel, cfg, self.seqs, self.cand, self.energy,
            self.cand_energy, self.temperature,
        )
        backend.launch(
            self.reduction_kernel, cfg, self.energy, self.seqs,
            self.best_energy, self.best_seq, self.result,
        )

        if config.variant != "sync":
            self.temperature *= config.cooling_rate
        else:
            self.sync_countdown -= 1
            if self.sync_countdown == 0:
                # Segment boundary: share the best state with every chain
                # and move to the next temperature level.
                assert self.broadcast_kernel is not None
                backend.launch(
                    self.broadcast_kernel, cfg, self.seqs, self.energy,
                    self.result,
                )
                self.temperature *= config.cooling_rate
                self.sync_countdown = config.sync_segment_length

    def finalize(self, final_seq: np.ndarray) -> tuple[np.ndarray, int]:
        if not self.config.final_polish:
            return final_seq, 0
        from repro.seqopt.local_search import local_search

        polished = local_search(self.adapter.instance, final_seq, "adjacent")
        return polished.sequence, polished.evaluations

    def params(self) -> dict:
        return {
            "algorithm": self.algorithm,
            **asdict(self.config),
            "t0": self.t0,
        }


def parallel_sa(
    instance: CDDInstance | UCDDCPInstance,
    config: ParallelSAConfig = ParallelSAConfig(),
    backend: str | ExecutionBackend = "gpusim",
) -> SolveResult:
    """Run the GPU-parallel SA over the chosen execution backend.

    Returns the best schedule over all chains and generations, with the
    measured host wall time; on the ``gpusim`` backend also the modeled
    device time (kernels plus all host<->device transfers).
    """
    return run_ensemble(instance, ParallelSAStrategy(config), backend)
