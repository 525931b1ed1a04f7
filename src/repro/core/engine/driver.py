"""The one host program behind the ensemble metaheuristics.

Both parallel drivers (SA and DPSO) follow the host program of the
paper's Figure 9: stage the instance, allocate device state, upload the
initial population, run ``iterations`` generations of kernel launches with
a host synchronize per generation, then transfer the elitist best back and
reconstruct its schedule.  :func:`run_ensemble` runs that program for every
``backend=``: it prepares the strategy on the host RNG, plans the shards,
draws the initial population, lets the placement run the shards and merges
them.  :func:`run_chains` is the generation loop itself, run once per
shard -- in-process for a kernel backend (one shard), in a worker process
or on a host agent for ``multiprocess``/``distributed``.  An
:class:`EnsembleStrategy` object contributes only what differs between
algorithms: which buffers and kernels exist and what one generation
launches.

**Sharding** splits the grid into contiguous block ranges.  A chain's
trajectory depends only on its initial sequence and its RNG stream, and the
stream depends only on ``(seed, t, draw_round)`` -- never on how many chains
run alongside it (:class:`repro.gpusim.rng.DeviceRNG`) -- so each shard
runs on a backend whose RNG is offset by the shard's first global row, and
the merge reproduces the elitist reduction's tie-breaks.  For a fixed seed
the result is bit-identical for every placement and worker count
(``tests/test_pool.py``, docs/parallel.md).  Strategies whose kernels read
across chains opt out via ``EnsembleStrategy.shardable`` and run as one
shard.

The call order against the backend is kept exactly as the original
hand-written drivers performed it, because on the gpusim backend every
launch/transfer charges modeled time and every RNG-consuming kernel
advances the shared counter stream: preserving the order preserves both
the modeled timings and the search trajectory bit-for-bit.

:func:`assemble_result` is the one place a best sequence becomes a
:class:`~repro.core.results.SolveResult`; the serial baselines use it too.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.engine.adapters import ProblemAdapter, adapter_for
from repro.core.engine.backends import (
    ExecutionBackend,
    Placement,
    create_backend,
)
from repro.core.results import SolveResult
from repro.gpusim.launch import Dim3, LaunchConfig
from repro.initialization import initial_population
from repro.problems.validation import validate_schedule

if TYPE_CHECKING:  # pragma: no cover
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance

__all__ = [
    "EnsembleStrategy",
    "ShardPlan",
    "ShardResult",
    "plan_shards",
    "run_chains",
    "run_ensemble",
    "assemble_result",
]


def assemble_result(
    adapter: ProblemAdapter,
    best_sequence: np.ndarray,
    *,
    evaluations: int,
    wall_time_s: float,
    history: np.ndarray | None = None,
    params: dict[str, Any] | None = None,
    **timing: float,
) -> SolveResult:
    """Reconstruct the best sequence's schedule and build the result."""
    schedule = adapter.reconstruct(best_sequence)
    return SolveResult(
        schedule=schedule,
        objective=schedule.objective,
        best_sequence=np.asarray(best_sequence),
        evaluations=evaluations,
        wall_time_s=wall_time_s,
        history=history,
        params=params if params is not None else {},
        **timing,
    )


class EnsembleStrategy(ABC):
    """What one parallel metaheuristic contributes to the shared loop.

    The driver calls the hooks in a fixed order (matching Figure 9):
    ``prepare`` (host-side, may consume the host RNG for e.g. the T0
    estimate), ``allocate`` (buffers + kernels; must set :attr:`seqs`,
    :attr:`best_seq`, :attr:`best_energy`), ``prepare_population``,
    ``initialize`` (first evaluation + elitism seed), then ``generation``
    once per iteration, and finally ``finalize`` on the downloaded best.
    """

    #: Population buffer the initial sequences are uploaded into.
    seqs: Any
    #: Buffer holding the elitist best sequence (downloaded at the end).
    best_seq: Any
    #: One-element buffer of the elitist best energy (history source).
    best_energy: Any

    def __init__(self, config: Any) -> None:
        self.config = config

    @property
    @abstractmethod
    def algorithm(self) -> str:
        """Label recorded in ``params['algorithm']``."""

    @property
    def shardable(self) -> bool:
        """Whether chains evolve independently (no cross-chain kernel reads).

        A pooled placement may split a shardable ensemble into contiguous
        per-worker slices; an unshardable one (e.g. a variant that
        broadcasts state across the whole ensemble each generation) runs
        whole as a single shard.  See docs/parallel.md.
        """
        return True

    def prepare(
        self, adapter: ProblemAdapter, host_rng: np.random.Generator
    ) -> None:
        """Host-side setup before the wall clock starts (default: none)."""

    @abstractmethod
    def allocate(
        self,
        backend: ExecutionBackend,
        adapter: ProblemAdapter,
        cfg: LaunchConfig,
    ) -> None:
        """Allocate device state and build the kernel set."""

    def prepare_population(self, init_seqs: np.ndarray) -> np.ndarray:
        """Adjust the initial population before upload (default: none)."""
        return init_seqs

    @abstractmethod
    def initialize(self, backend: ExecutionBackend, cfg: LaunchConfig) -> None:
        """Evaluate the initial population and seed the elitist best."""

    @abstractmethod
    def generation(
        self, backend: ExecutionBackend, cfg: LaunchConfig, it: int
    ) -> None:
        """Launch one generation's kernel pipeline (no synchronize)."""

    def finalize(self, final_seq: np.ndarray) -> tuple[np.ndarray, int]:
        """Post-process the downloaded best; returns (sequence, extra
        objective evaluations performed)."""
        return final_seq, 0

    def params(self) -> dict[str, Any]:
        """Algorithm-specific entries of ``SolveResult.params``."""
        return {"algorithm": self.algorithm}


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """Contiguous block ranges: shard ``i`` runs ``blocks[i]`` blocks
    starting at global row ``row_offsets[i]``."""

    row_offsets: tuple[int, ...]
    blocks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.blocks)


def plan_shards(
    grid_size: int,
    block_size: int,
    workers: int | None,
    shardable: bool = True,
    algorithm: str = "",
) -> ShardPlan:
    """Split ``grid_size`` blocks into at most ``workers`` contiguous shards.

    Sharding granularity is whole blocks (a block is the natural CUDA unit
    and keeps shard populations multiples of ``block_size``).  ``workers``
    of ``None`` means ``min(os.cpu_count(), grid_size)``.  An unshardable
    strategy degrades to one shard with a ``RuntimeWarning`` when the
    caller explicitly asked for more.
    """
    if not shardable:
        if workers is not None and workers > 1:
            warnings.warn(
                f"{algorithm or 'this strategy'} couples chains across the "
                "ensemble and cannot be sharded; running the whole ensemble "
                "in one worker process",
                RuntimeWarning,
                stacklevel=3,
            )
        nshards = 1
    else:
        if workers is None:
            from repro.pool.executor import default_workers

            workers = default_workers(cap=grid_size)
        nshards = min(workers, grid_size)
    base, extra = divmod(grid_size, nshards)
    blocks = tuple(base + (1 if i < extra else 0) for i in range(nshards))
    offsets, acc = [], 0
    for b in blocks:
        offsets.append(acc * block_size)
        acc += b
    return ShardPlan(row_offsets=tuple(offsets), blocks=blocks)


@dataclasses.dataclass
class ShardResult:
    """What one shard reports back for the merge.

    ``ext_history`` has ``iterations + 1`` entries: entry 0 is the shard's
    running best right after ``initialize`` (the initial population's
    elitist minimum), entry ``k`` the running best after generation
    ``k - 1``.  The extra leading entry lets the merge distinguish a best
    reached by the initial population from one reached in generation 0 —
    both would show the same value at history index 0.  ``timing`` is the
    backend's modeled-timing fields (empty unless it models the device).
    """

    best_seq: np.ndarray
    best_energy: float
    ext_history: np.ndarray
    timing: dict[str, float] = dataclasses.field(default_factory=dict)


def run_chains(
    strategy: EnsembleStrategy,
    backend: ExecutionBackend,
    adapter: ProblemAdapter,
    init_rows: np.ndarray,
) -> ShardResult:
    """The generation loop of Figure 9 over one shard's chains.

    ``strategy`` is prepared and configured for the shard (its
    ``grid_size`` is the shard's block count), and ``init_rows`` has been
    through ``prepare_population`` already.  Primitive order: ``open``,
    one ``upload``, ``synchronize`` after every generation and once more,
    then two ``download`` calls -- the gpusim golden timings depend on it.
    """
    config = strategy.config
    backend.open(
        adapter, seed=config.seed, device_spec=config.resolve_device_spec(),
        timing=config.resolve_timing_model(),
    )
    cfg = LaunchConfig(
        grid=Dim3(x=config.grid_size), block=Dim3(x=config.block_size)
    )
    strategy.allocate(backend, adapter, cfg)
    backend.upload(strategy.seqs, np.ascontiguousarray(init_rows))
    strategy.initialize(backend, cfg)

    ext_history = np.empty(config.iterations + 1)
    ext_history[0] = strategy.best_energy.array[0]
    for it in range(config.iterations):
        strategy.generation(backend, cfg, it)
        backend.synchronize()
        ext_history[it + 1] = strategy.best_energy.array[0]

    backend.synchronize()
    best_seq = backend.download(strategy.best_seq).astype(np.intp)
    best_energy = float(backend.download(strategy.best_energy)[0])
    return ShardResult(
        best_seq, best_energy, ext_history, backend.timing_fields()
    )


def _merge_shards(
    instance: "CDDInstance | UCDDCPInstance",
    strategy: EnsembleStrategy,
    adapter: ProblemAdapter,
    results: Sequence[ShardResult],
    start_wall: float,
    params: dict[str, Any],
) -> SolveResult:
    """Merge shard results bit-identically to the elitist reduction.

    Reproduces the reduction's tie-breaks (strict improvement, earliest
    round, lowest global thread index): the winner is the shard with the
    lowest best energy, reached in the earliest round, from the lowest
    shard index — shards are ascending block ranges, so the lowest tied
    shard contains the lowest tied global thread.
    """
    config = strategy.config

    def first_round(shard: ShardResult) -> int:
        return int(np.nonzero(shard.ext_history == shard.best_energy)[0][0])

    winner = min(
        range(len(results)),
        key=lambda i: (results[i].best_energy, first_round(results[i]), i),
    )
    merged_ext = results[0].ext_history.copy()
    for shard in results[1:]:
        np.minimum(merged_ext, shard.ext_history, out=merged_ext)
    history = merged_ext[1:] if config.record_history else None

    final_seq, extra_evals = strategy.finalize(results[winner].best_seq)
    wall = time.perf_counter() - start_wall

    params["device_spec"] = config.resolve_device_spec().name
    params["device_profile"] = (
        None if config.device_spec is not None else config.device_profile
    )
    result = assemble_result(
        adapter,
        final_seq,
        evaluations=(config.iterations + 1) * config.population + extra_evals,
        wall_time_s=wall,
        history=history,
        params=params,
        **results[winner].timing,
    )
    # Defense in depth: pooled shard payloads already passed the transport
    # digest; re-validate the merged solution with the independent checker
    # so a corrupted-but-well-formed payload cannot become a silently wrong
    # answer (a violation raises ScheduleError here, at the merge).
    validate_schedule(instance, result.schedule)
    return result


def run_ensemble(
    instance: "CDDInstance | UCDDCPInstance",
    strategy: EnsembleStrategy,
    backend: str | Placement = "gpusim",
) -> SolveResult:
    """Run ``strategy`` on ``instance`` over the chosen backend.

    The one host program for every placement: the host RNG feeds
    ``prepare`` (e.g. the T0 estimate) and the initial population, the
    placement runs the shards (in-process for a kernel backend, on worker
    processes or host agents for ``multiprocess``/``distributed``), and
    the merge applies ``finalize`` to the global best.
    """
    config = strategy.config
    placement = create_backend(backend)
    adapter = adapter_for(instance)
    host_rng = np.random.default_rng(config.seed)
    strategy.prepare(adapter, host_rng)

    start_wall = time.perf_counter()
    plan = plan_shards(
        config.grid_size,
        config.block_size,
        placement.workers,
        shardable=strategy.shardable,
        algorithm=strategy.algorithm,
    )
    init_seqs = initial_population(
        instance, config.population, host_rng, config.init
    ).astype(np.int32, copy=False)
    init_seqs = strategy.prepare_population(init_seqs)
    shards = placement.run_shards(instance, strategy, adapter, plan, init_seqs)

    params = strategy.params()
    params.update(placement.result_params(len(shards)))
    return _merge_shards(
        instance, strategy, adapter, shards, start_wall, params
    )
