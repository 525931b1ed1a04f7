"""Module-level worker entry points (spawn-safe, picklable payloads).

Everything a worker process needs travels as picklable values: the problem
instance (a frozen dataclass of arrays), the strategy *class*, its config
dataclass, and plain integers.  The worker rebuilds adapter/strategy/kernels
locally, so no live kernel closures or backend state ever cross the process
boundary.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.engine.adapters import adapter_for
from repro.core.engine.backends import VectorizedBackend
from repro.gpusim.launch import Dim3, LaunchConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine.driver import EnsembleStrategy
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance
    from repro.resilience.faults import FaultPlan

__all__ = ["ShardResult", "run_shard", "solve_one"]


@dataclasses.dataclass
class ShardResult:
    """What one ensemble shard reports back for the merge.

    ``ext_history`` has ``iterations + 1`` entries: entry 0 is the shard's
    running best right after ``initialize`` (the initial population's
    elitist minimum), entry ``k`` the running best after generation
    ``k - 1``.  The extra leading entry lets the merge distinguish a best
    reached by the initial population from one reached in generation 0 —
    both would show the same value at history index 0.
    """

    best_seq: np.ndarray
    best_energy: float
    ext_history: np.ndarray


def run_shard(
    instance: "CDDInstance | UCDDCPInstance",
    strategy_cls: "type[EnsembleStrategy]",
    config: Any,
    row_offset: int,
    nblocks: int,
    init_rows: np.ndarray,
    fault_plan: "FaultPlan | None" = None,
) -> ShardResult:
    """Run blocks ``[row_offset/block_size, ...)`` of the global ensemble.

    Reproduces :func:`repro.core.engine.driver.run_ensemble`'s loop for one
    contiguous slice of chains on a :class:`VectorizedBackend` whose RNG is
    offset by ``row_offset`` — so every chain draws exactly the stream it
    would have drawn in the unsharded run.  The parent has already applied
    ``prepare_population`` (it indexes by *global* row), so ``init_rows``
    is uploaded as-is; ``finalize`` is also the parent's job (it runs on
    the merged best only).
    """
    adapter = adapter_for(instance)
    shard_config = dataclasses.replace(config, grid_size=nblocks)
    strategy = strategy_cls(shard_config)
    # Same seed, same consumption order as the unsharded run: ``prepare``
    # draws (e.g. the T0 estimate) before the population would be drawn, so
    # replaying it here reproduces the exact host-derived state.
    strategy.prepare(adapter, np.random.default_rng(config.seed))

    backend = VectorizedBackend(fault_plan=fault_plan, thread_offset=row_offset)
    backend.open(
        adapter, seed=config.seed, device_spec=config.resolve_device_spec()
    )
    cfg = LaunchConfig(
        grid=Dim3(x=nblocks), block=Dim3(x=config.block_size)
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
    return ShardResult(best_seq, best_energy, ext_history)


def solve_one(
    instance: "CDDInstance | UCDDCPInstance", method: str, kwargs: dict
) -> Any:
    """One full façade solve — the ``solve_many`` task body."""
    from repro.core.solver import solver_for

    return solver_for(instance).solve(method, **kwargs)
